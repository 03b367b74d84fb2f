package mem

import "testing"

// The RangeSet (range.go) and cache lookup (cache.go) hot paths must run at
// 0 allocs/op once their storage has reached steady state (spill slices and
// cache arrays pre-grown); these tests are what holds them to it.
//
// Each test counts every allocation over 200 rounds, as one AllocsPerRun run
// of a 200-round loop: AllocsPerRun divides by its run count in integers, so
// 200 runs would forgive up to 199 allocations and hide the amortized growth
// of a slice that a hot path keeps appending to.

func TestRangeSetInlineOpsNoAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			var s RangeSet
			s.Add(Range{0x1000, 0x2000})
			s.Add(Range{0x4000, 0x5000})
			s.Add(Range{0x2000, 0x3000}) // merges with the first
			if s.Len() != 2 {
				t.Fatalf("len = %d, want 2", s.Len())
			}
			total := uint64(0)
			for i := 0; i < s.Len(); i++ {
				total += s.At(i).Size()
			}
			if total != 0x3000 {
				t.Fatalf("size = %#x, want 0x3000", total)
			}
			if !s.Contains(0x1800) || s.Contains(0x3800) {
				t.Fatal("membership wrong")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("inline RangeSet ops: %v allocs in 200 rounds, want 0", allocs)
	}
}

func TestRangeSetSpilledOpsNoAllocs(t *testing.T) {
	// Build a spilled set (more than inlineRanges members), then verify the
	// mutating walks reuse the spill storage.
	var s RangeSet
	for i := 0; i < 16; i++ {
		s.Add(Range{Addr(i * 0x1000), Addr(i*0x1000 + 0x100)})
	}
	if s.spill == nil {
		t.Fatal("set did not spill")
	}
	var small RangeSet
	small.Add(Range{0x100000, 0x100040}) // beyond every member of s
	allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			s.Add(Range{0x3000, 0x3080}) // merges into an existing member
			if !s.Overlaps(Range{0x3000, 0x3001}) {
				t.Fatal("overlap lost")
			}
			if !s.Contains(0x3040) || s.Contains(0x100020) {
				t.Fatal("membership wrong")
			}
			if s.OverlapsSet(small) {
				t.Fatal("phantom overlap")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("spilled RangeSet ops: %v allocs in 200 rounds, want 0", allocs)
	}
}

func TestRangeSetAddSetNoAllocs(t *testing.T) {
	var a, b RangeSet
	a.Add(Range{0x0, 0x100})
	a.Add(Range{0x1000, 0x1100})
	b.Add(Range{0x2000, 0x2100})
	b.Add(Range{0x3000, 0x3100})
	allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			s := a // inline sets copy by value
			s.AddSet(b)
			if s.Len() != 4 {
				t.Fatalf("len = %d, want 4", s.Len())
			}
			s.IntersectSet(a) // small sets use the stack buffer
			if !s.Equal(a) {
				t.Fatal("intersection wrong")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("AddSet/IntersectSet on inline sets: %v allocs in 200 rounds, want 0", allocs)
	}
}

func TestCacheOpsNoAllocs(t *testing.T) {
	c, err := NewCache("l1", 4096, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			for i := 0; i < 32; i++ {
				line := Addr(i * 64)
				c.Fill(line, uint32(i), i%2 == 0)
				if _, hit := c.Read(line); !hit {
					t.Fatal("fill then read missed")
				}
				c.Write(line, uint32(i)+1)
				c.UpdateClean(line, uint32(i)+2)
				if _, _, hit := c.Peek(line); !hit {
					t.Fatal("peek missed")
				}
				miss := line + 32*64
				if _, hit, _ := c.ReadFill(miss); hit {
					t.Fatal("ReadFill hit a line never filled")
				}
				c.FillMRU(miss, uint32(i))
				c.FillMRU(line, uint32(i)) // no longer MRU: the fallback Fill
			}
			for i := 0; i < 32; i++ {
				c.Invalidate(Addr(i * 64))
			}
			c.InvalidateAll()
		}
	})
	if allocs != 0 {
		t.Errorf("cache lookup path: %v allocs in 200 rounds, want 0", allocs)
	}
}
