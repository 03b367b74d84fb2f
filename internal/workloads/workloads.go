// Package workloads provides descriptors for the paper's 24 benchmarks
// (Table II): traditional GPGPU, graph analytics, ML, and HPC applications
// spanning diverse inter-kernel access patterns.
//
// Each descriptor reproduces the kernel-boundary-relevant behavior of the
// original: the dynamic kernel sequence, the data structures with their
// access modes and address ranges, the inter-kernel reuse pattern
// (iterative, producer-consumer, stencil ping-pong, graph-irregular,
// LDS-staged), the memory footprint relative to the 8 MB per-chiplet L2 and
// 16 MB L3, and where each sits between compute- and memory-bound. CPElide
// acts on exactly this information — kernel argument metadata and WG
// placement — so these descriptors exercise the same decision points as the
// originals.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/kernels"
)

// Params tunes workload construction.
type Params struct {
	// Scale multiplies data-structure footprints (default 1.0, the paper's
	// inputs). Tests use smaller scales; the kernel sequences are
	// unchanged.
	Scale float64
	// Iters overrides the iteration count of iterative workloads (0 keeps
	// each workload's default).
	Iters int
}

// maxElems caps a scaled element count. A structure that large is far
// past the simulator's footprint bound (cpelide.MaxFootprintBytes), so its
// run is refused either way; the cap keeps the float-to-int conversion,
// which wraps on overflow, and the byte sizes derived from it in range.
const maxElems = 1 << 40

func (p Params) scale(elems int) int {
	if p.Scale <= 0 || p.Scale == 1 {
		return elems
	}
	f := float64(elems) * p.Scale
	if f >= maxElems {
		return maxElems
	}
	v := int(f)
	// Keep slicing and paging well-formed: at least one line per WG at
	// reasonable grid sizes, rounded to 4 Ki elements.
	const q = 4096
	if v < q {
		return q
	}
	return v / q * q
}

func (p Params) iters(def int) int {
	if p.Iters > 0 {
		return p.Iters
	}
	return def
}

// Spec is one registered benchmark.
type Spec struct {
	// Name matches Table II.
	Name string
	// Class is the paper's reuse grouping.
	Class kernels.ReuseClass
	// Input documents the Table II input the descriptor mirrors.
	Input string
	// Build constructs the workload using alloc for data structures.
	Build func(alloc *kernels.Allocator, p Params) *kernels.Workload
}

var registry []Spec

func register(s Spec) { registry = append(registry, s) }

// All returns every benchmark in Table II order (moderate-to-high reuse
// first, then low reuse).
func All() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class == kernels.ModerateHighReuse
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns all benchmark names.
func Names() []string {
	specs := All()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// ByClass returns the benchmarks in one reuse class.
func ByClass(c kernels.ReuseClass) []Spec {
	var out []Spec
	for _, s := range All() {
		if s.Class == c {
			out = append(out, s)
		}
	}
	return out
}

// Get returns the named benchmark.
func Get(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Build constructs the named benchmark.
func Build(name string, alloc *kernels.Allocator, p Params) (*kernels.Workload, error) {
	s, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
	}
	w := s.Build(alloc, p)
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// fmt2 is shorthand for fmt.Sprintf in workload builders.
func fmt2(f string, args ...any) string { return fmt.Sprintf(f, args...) }

// repeat appends n copies of the given kernels to seq, in order, modeling
// iterative launch loops.
func repeat(seq []*kernels.Kernel, n int, ks ...*kernels.Kernel) []*kernels.Kernel {
	for i := 0; i < n; i++ {
		seq = append(seq, ks...)
	}
	return seq
}

// workload assembles the Workload with its structure list derived from the
// kernel sequence.
func workload(name string, class kernels.ReuseClass, seed uint64, seq []*kernels.Kernel) *kernels.Workload {
	seen := map[*kernels.DataStructure]bool{}
	var ds []*kernels.DataStructure
	for _, k := range seq {
		for _, a := range k.Args {
			if !seen[a.DS] {
				seen[a.DS] = true
				ds = append(ds, a.DS)
			}
		}
	}
	return &kernels.Workload{
		Name:       name,
		Class:      class,
		Structures: ds,
		Sequence:   seq,
		Seed:       seed,
	}
}
