package diskstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/stats"
)

func testKey(i int) string {
	return fmt.Sprintf("%064x", i)
}

func testReport(i int) *cpelide.Report {
	sheet := stats.New()
	sheet.Add(stats.L2FlushOps, uint64(i))
	kd := stats.NewHistogram("kernel duration (cycles)")
	kd.Observe(uint64(100 + i))
	return &cpelide.Report{
		Workload:  "square",
		Protocol:  "CPElide",
		Chiplets:  4,
		Cycles:    uint64(1000 + i),
		Sheet:     sheet,
		Kernels:   3,
		Accesses:  uint64(50 * i),
		KernelDur: kd,
		ImageHash: uint64(i) * 0x9e3779b97f4a7c15,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, rep := testKey(1), testReport(1)

	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("get before put: ok=%v err=%v", ok, err)
	}
	if err := s.Put(key, rep); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	// The store's contract is JSON-level byte identity: a loaded report
	// must re-serialize exactly as the original did.
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip not byte-identical:\n%s\n%s", a, b)
	}
	if got.KernelDur.Count() != 1 || got.KernelDur.Max() != 101 {
		t.Fatalf("histogram lost in round trip: %+v", got.KernelDur)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("len=%d err=%v, want 1", n, err)
	}

	// Overwrite is idempotent.
	if err := s.Put(key, rep); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("len=%d after overwrite, want 1", n)
	}
}

func TestBadKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"",
		"short",
		"../../../../etc/passwd",
		testKey(1)[:63] + "Z",                   // uppercase / non-hex
		"../" + testKey(1)[:61],                 // traversal at full length
		testKey(1)[:32] + "/" + testKey(1)[:31], // separator inside
		testKey(1)[:63] + "G",                   // non-hex tail
	} {
		if err := s.Put(key, testReport(0)); !errors.Is(err, ErrBadKey) {
			t.Errorf("Put(%q): err=%v, want ErrBadKey", key, err)
		}
		if _, _, err := s.Get(key); !errors.Is(err, ErrBadKey) {
			t.Errorf("Get(%q): err=%v, want ErrBadKey", key, err)
		}
	}
	if err := s.Put(testKey(1), nil); err == nil {
		t.Error("Put(nil report) accepted")
	}
	if _, err := Open(""); err == nil {
		t.Error("Open(\"\") accepted")
	}
}

func TestCorruptEntryIsErrorNotMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(2)
	if err := s.Put(key, testReport(2)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key[:2], key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := s.Get(key)
	if ok || err == nil {
		t.Fatalf("corrupt entry: ok=%v err=%v, want miss with error", ok, err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	// The corrupt file was moved aside, so the next Get is a clean miss and
	// a fresh Put repairs the entry.
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("get after quarantine: ok=%v err=%v, want clean miss", ok, err)
	}
	if n, err := s.QuarantineCount(); err != nil || n != 1 {
		t.Fatalf("quarantine count = %d err=%v, want 1", n, err)
	}
	if s.CorruptCount() != 1 {
		t.Fatalf("corrupt count = %d, want 1", s.CorruptCount())
	}
	if err := s.Put(key, testReport(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); !ok || err != nil {
		t.Fatalf("get after repair: ok=%v err=%v", ok, err)
	}
}

// TestChecksumMismatchQuarantines flips one byte inside the report payload
// of a valid envelope: the CRC must catch it, the file must be quarantined,
// and the OnCorrupt hook must fire — never a wrong answer served.
func TestChecksumMismatchQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hooked []string
	s.OnCorrupt = func(key string) { hooked = append(hooked, key) }
	key := testKey(3)
	if err := s.Put(key, testReport(3)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the report payload without breaking JSON syntax.
	i := bytes.Index(b, []byte(`"Cycles":`))
	if i < 0 {
		t.Fatalf("no Cycles field in %s", b)
	}
	b[i+len(`"Cycles":`)] ^= 0x01 // '1' <-> '0'
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := s.Get(key)
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped entry: ok=%v err=%v, want ErrCorrupt", ok, err)
	}
	if len(hooked) != 1 || hooked[0] != key {
		t.Fatalf("OnCorrupt calls = %v, want [%s]", hooked, key)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", key+".json")); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	// The quarantine directory must not pollute the key scan.
	if n, err := s.Len(); err != nil || n != 0 {
		t.Fatalf("len=%d err=%v after quarantine, want 0", n, err)
	}
}

// TestUnknownSchemaQuarantines: a file without a known envelope version
// must fail closed: ErrCorrupt, moved to quarantine/, OnCorrupt called.
// That covers a future schema, a bare report with no envelope at all, and
// an envelope whose "schema" key lost a bit — still valid JSON, which
// decodes to an empty report (zero cycles) unless the schema is checked.
func TestUnknownSchemaQuarantines(t *testing.T) {
	bare, err := json.Marshal(testReport(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		blob func(t *testing.T, s *Store, key string) []byte
	}{
		{"future schema", func(*testing.T, *Store, string) []byte {
			return []byte(`{"schema":"diskstore/v9","crc32c":"00000000","report":{}}`)
		}},
		{"bare report", func(*testing.T, *Store, string) []byte { return bare }},
		{"flipped schema key", func(t *testing.T, s *Store, key string) []byte {
			if err := s.Put(key, testReport(5)); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(s.path(key))
			if err != nil {
				t.Fatal(err)
			}
			i := bytes.Index(b, []byte(`"schema"`))
			if i < 0 {
				t.Fatalf("no schema key in %s", b)
			}
			b[i+1] ^= 0x01 // 's' -> 'r'
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var hooked []string
			s.OnCorrupt = func(key string) { hooked = append(hooked, key) }
			key := testKey(5)
			blob := tc.blob(t, s, key)
			if err := os.MkdirAll(filepath.Join(dir, key[:2]), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.path(key), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			if rep, ok, err := s.Get(key); ok || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ok=%v err=%v rep=%+v, want ErrCorrupt", ok, err, rep)
			}
			if len(hooked) != 1 || hooked[0] != key {
				t.Fatalf("OnCorrupt calls = %v, want [%s]", hooked, key)
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", key+".json")); err != nil {
				t.Fatalf("corrupt file not quarantined: %v", err)
			}
		})
	}
}

func TestRecentKeysOrderAndLimit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct mtimes, oldest first, set explicitly so the test does not
	// depend on filesystem timestamp resolution.
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 5; i++ {
		key := testKey(i)
		if err := s.Put(key, testReport(i)); err != nil {
			t.Fatal(err)
		}
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.path(key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.RecentKeys(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{testKey(4), testKey(3), testKey(2)}
	if len(keys) != 3 || keys[0] != want[0] || keys[1] != want[1] || keys[2] != want[2] {
		t.Fatalf("RecentKeys(3) = %v, want %v", keys, want)
	}
	all, err := s.RecentKeys(0)
	if err != nil || len(all) != 5 {
		t.Fatalf("RecentKeys(0) = %d keys, err=%v, want all 5", len(all), err)
	}
	// Stray files that are not content-addressed entries are ignored.
	if err := os.WriteFile(filepath.Join(dir, testKey(0)[:2], "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Len(); err != nil || n != 5 {
		t.Fatalf("len=%d err=%v after stray file, want 5", n, err)
	}
}

// TestConcurrentSharedDirectory hammers one directory through two Store
// handles (standing in for two worker processes): concurrent puts and gets
// of overlapping keys must never surface a partial file.
func TestConcurrentSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 16
	var wg sync.WaitGroup
	errs := make(chan error, 4*keys*8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := s1
			if g%2 == 1 {
				st = s2
			}
			for round := 0; round < 8; round++ {
				for i := 0; i < keys; i++ {
					if err := st.Put(testKey(i), testReport(i)); err != nil {
						errs <- err
						return
					}
					if rep, ok, err := st.Get(testKey((i + g) % keys)); err != nil {
						errs <- err
						return
					} else if ok && rep.Workload != "square" {
						errs <- fmt.Errorf("partial read: %+v", rep)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, err := s1.Len(); err != nil || n != keys {
		t.Fatalf("len=%d err=%v, want %d", n, err, keys)
	}
}
