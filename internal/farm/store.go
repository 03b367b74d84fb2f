package farm

import (
	"repro"
)

// Store is a persistent, content-addressed result store layered underneath
// the in-memory LRU (internal/diskstore is the on-disk implementation).
// The farm consults it after an LRU miss before running a simulation, and
// writes every freshly computed report back, so results survive process
// restarts.
//
// Contract: Get returns (nil, false, nil) for a never-stored key; an
// unreadable or corrupt entry is (nil, false, err) so the farm can count it
// and recompute. Put must be atomic with respect to concurrent readers in
// any process. Reports passed to Put are shared and must not be mutated.
type Store interface {
	Get(key string) (*cpelide.Report, bool, error)
	Put(key string, rep *cpelide.Report) error
}

// Warm preloads the in-memory result cache from the store, most useful at
// worker startup with keys from diskstore.RecentKeys. It returns how many
// reports were loaded. Keys that miss or fail to load are skipped (failures
// land in the StoreErrors counter); keys already resident stay put.
func (f *Farm) Warm(keys []string) int {
	if f.store == nil {
		return 0
	}
	loaded := 0
	for _, key := range keys {
		f.mu.Lock()
		_, resident := f.cache.get(key, true)
		f.mu.Unlock()
		if resident {
			continue
		}
		rep, ok, err := f.store.Get(key)
		if err != nil {
			f.mu.Lock()
			f.c.StoreErrors++
			f.mu.Unlock()
			continue
		}
		if !ok {
			continue
		}
		fl := &flight{key: key, rep: rep, resolved: true, done: make(chan struct{})}
		close(fl.done)
		f.mu.Lock()
		if f.cache.add(fl) {
			f.c.Evictions++
		}
		f.mu.Unlock()
		loaded++
	}
	return loaded
}
