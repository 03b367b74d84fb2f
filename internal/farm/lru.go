package farm

import "container/list"

// lruCache is a bounded most-recently-used cache of resolved flights keyed
// by canonical job hash. It keeps failed runs too, so a job's last outcome
// stays readable until it is evicted. It is not goroutine-safe; the Farm
// guards it with its mutex.
type lruCache struct {
	cap int
	ll  *list.List
	m   map[string]*list.Element
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// get looks key up; touch refreshes the entry's recency.
func (c *lruCache) get(key string, touch bool) (*flight, bool) {
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	if touch {
		c.ll.MoveToFront(el)
	}
	return el.Value.(*flight), true
}

// add inserts or replaces the entry for fl.key and reports whether an older
// entry was evicted to stay within capacity.
func (c *lruCache) add(fl *flight) bool {
	if el, ok := c.m[fl.key]; ok {
		el.Value = fl
		c.ll.MoveToFront(el)
		return false
	}
	c.m[fl.key] = c.ll.PushFront(fl)
	if c.ll.Len() <= c.cap {
		return false
	}
	oldest := c.ll.Back()
	c.ll.Remove(oldest)
	delete(c.m, oldest.Value.(*flight).key)
	return true
}

func (c *lruCache) len() int { return c.ll.Len() }
