package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// routingIDs returns n job IDs shaped like real ones: 64-hex SHA-256 digests.
func routingIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		sum := sha256.Sum256([]byte(fmt.Sprintf("job-%d", i)))
		ids[i] = hex.EncodeToString(sum[:])
	}
	return ids
}

func workerNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i+1)
	}
	return names
}

// owners maps every ID to its rendezvous owner among names.
func owners(ids, names []string) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = rendezvous(routeKey(id), names)
	}
	return out
}

// TestRendezvousMinimalDisruption pins, for each worker count, an even
// spread and minimal movement: removing a worker moves only its keys, and
// adding one moves keys only onto it.
func TestRendezvousMinimalDisruption(t *testing.T) {
	ids := routingIDs(10000)
	for _, n := range []int{3, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			names := workerNames(n)
			before := owners(ids, names)

			share := map[string]int{}
			for _, o := range before {
				share[o]++
			}
			want := float64(len(ids)) / float64(n)
			for _, name := range names {
				if got := float64(share[name]); got < 0.9*want || got > 1.1*want {
					t.Errorf("%s owns %v keys, want %.0f ±10%%", name, got, want)
				}
			}
			t.Logf("shares %v", share)

			for drop := range names {
				rest := append(append([]string{}, names[:drop]...), names[drop+1:]...)
				for i, o := range owners(ids, rest) {
					if o != before[i] && before[i] != names[drop] {
						t.Fatalf("removing %s moved key %s from %s to %s", names[drop], ids[i][:12], before[i], o)
					}
				}
			}

			added := fmt.Sprintf("w%d", n+1)
			moved := 0
			for i, o := range owners(ids, append(append([]string{}, names...), added)) {
				if o != before[i] {
					if o != added {
						t.Fatalf("adding %s moved key %s from %s to %s", added, ids[i][:12], before[i], o)
					}
					moved++
				}
			}
			if moved == 0 {
				t.Fatalf("adding %s moved no keys onto it", added)
			}
		})
	}
}

// TestRendezvousDeterministicPopulation: routing depends on the set of
// workers, not on the order they registered in, and an empty set routes
// nowhere.
func TestRendezvousDeterministicPopulation(t *testing.T) {
	ids := routingIDs(10000)
	if got := rendezvous(routeKey(ids[0]), nil); got != "" {
		t.Fatalf("empty worker set routed to %q", got)
	}
	for _, n := range []int{3, 5, 8} {
		names := workerNames(n)
		before := owners(ids, names)
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 5; trial++ {
			shuffled := append([]string{}, names...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for i, o := range owners(ids, shuffled) {
				if o != before[i] {
					t.Fatalf("order %v routes key %s to %s, want %s", shuffled, ids[i][:12], o, before[i])
				}
			}
		}
	}
}

// TestHedgeTargetIsRerouteTarget: a job's second-ranked worker, where a
// slow submit is hedged, is the worker that owns the job once its
// first-ranked worker is marked dead.
func TestHedgeTargetIsRerouteTarget(t *testing.T) {
	c := NewCoordinator(Options{HealthInterval: time.Hour, FailThreshold: 1})
	t.Cleanup(c.Close)
	names := workerNames(3)
	for _, name := range names {
		if err := c.Register(Worker{Name: name, URL: "http://" + name + ".invalid"}); err != nil {
			t.Fatal(err)
		}
	}
	ids := routingIDs(10000)
	first := make([]string, len(ids))
	second := make([]string, len(ids))
	for i, id := range ids {
		var err error
		if first[i], _, err = c.route(id, ""); err != nil {
			t.Fatal(err)
		}
		if second[i], _, err = c.route(id, first[i]); err != nil {
			t.Fatal(err)
		}
		if second[i] == first[i] {
			t.Fatalf("key %s: second-ranked worker is the owner %s", id[:12], first[i])
		}
	}
	for _, dead := range names {
		c.noteFailure(dead)
		for i, id := range ids {
			if first[i] != dead {
				continue
			}
			if got, _, err := c.route(id, ""); err != nil || got != second[i] {
				t.Fatalf("key %s: owner after %s died = %s (%v), want its second-ranked %s",
					id[:12], dead, got, err, second[i])
			}
		}
		c.noteSuccess(dead)
	}
}
