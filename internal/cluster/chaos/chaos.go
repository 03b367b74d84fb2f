// Package chaos is the cluster's fault conduit: a deterministic,
// seed-driven layer that injects the failures a distributed farm actually
// sees — dropped connections, slow links, truncated responses, 5xx blips,
// partitioned nodes, and a store that returns errors — so the recovery
// machinery (resubmit on 404, hedging, recompute-on-corruption) can
// be exercised in tests and smoke runs instead of discovered in production.
//
// It mirrors internal/faults at the serving layer: every decision is drawn
// from a splitmix64 stream seeded by Config.Seed, using the same
// consume-nothing-when-disabled discipline, so a fault schedule is a pure
// function of (seed, decision order). Requests arriving concurrently race
// for positions in the stream, so cross-goroutine schedules vary with
// scheduling — but a single-threaded driver replays exactly, and rates and
// counters are always exact.
//
// Two conduits are provided:
//
//   - Transport, an http.RoundTripper wrapper for the coordinator<->worker
//     path (drop, delay, truncate, 5xx, per-host partition).
//   - FlakyStore, a farm.Store wrapper that injects read/write errors, the
//     way a shared filesystem fails.
package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/farm"
)

// Config selects the fault mix. Rates are probabilities in [0,1]; the zero
// value injects nothing.
type Config struct {
	// Seed seeds the deterministic decision stream.
	Seed uint64
	// DropRate is the probability a request is dropped before reaching the
	// backend — the caller sees a transport error, as on a reset connection.
	DropRate float64
	// DelayRate is the probability a request is delayed by Delay before
	// being forwarded (a slow worker or congested link).
	DelayRate float64
	// Delay is the injected latency for delayed requests. Default 50ms.
	Delay time.Duration
	// TruncateRate is the probability a response body is cut off mid-read,
	// as when a peer dies while streaming.
	TruncateRate float64
	// Err5xxRate is the probability the backend is replaced by a
	// synthesized 503 (a crashing or overloaded process).
	Err5xxRate float64
}

// withDefaults fills the magnitude knobs that are zero.
func (c Config) withDefaults() Config {
	if c.Delay <= 0 {
		c.Delay = 50 * time.Millisecond
	}
	return c
}

// Counters tallies injected faults.
type Counters struct {
	Drops      uint64 `json:"drops"`
	Delays     uint64 `json:"delays"`
	Truncates  uint64 `json:"truncates"`
	Errs5xx    uint64 `json:"errs_5xx"`
	Partitions uint64 `json:"partitions"`
	Passed     uint64 `json:"passed"`
}

// Transport is a fault-injecting http.RoundTripper. It wraps an inner
// transport and, per request, may drop it, delay it, truncate its response,
// or synthesize a 5xx — plus hard per-host partitions toggled at runtime.
// Safe for concurrent use.
type Transport struct {
	inner http.RoundTripper
	cfg   Config

	mu          sync.Mutex
	state       uint64
	partitioned map[string]bool
	c           Counters
}

// NewTransport wraps inner (nil means http.DefaultTransport) with the fault
// mix in cfg.
func NewTransport(inner http.RoundTripper, cfg Config) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	cfg = cfg.withDefaults()
	return &Transport{
		inner:       inner,
		cfg:         cfg,
		state:       cfg.Seed,
		partitioned: make(map[string]bool),
	}
}

// next advances the splitmix64 stream (caller holds mu).
func (t *Transport) next() uint64 {
	t.state += 0x9e3779b97f4a7c15
	z := t.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance draws one variate and reports whether it fell under p; p <= 0
// consumes nothing so enabling one fault class does not shift the others
// (caller holds mu).
func (t *Transport) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(t.next()>>11)/(1<<53) < p
}

// SetPartitioned cuts (or heals) the link to host — every request to it
// fails immediately with a transport error, like a yanked network cable.
// host is matched against the request URL's Host (host:port).
func (t *Transport) SetPartitioned(host string, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if on {
		t.partitioned[host] = true
	} else {
		delete(t.partitioned, host)
	}
}

// Counters returns a snapshot of the injection tallies.
func (t *Transport) Counters() Counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}

// transportError marks synthesized connection failures so tests can
// distinguish injected faults from real ones.
type transportError struct{ msg string }

func (e *transportError) Error() string { return e.msg }

// Timeout and Temporary let the injected error satisfy net.Error-style
// transient checks, matching how a real reset/refused connection presents.
func (e *transportError) Timeout() bool   { return false }
func (e *transportError) Temporary() bool { return true }

// RoundTrip applies the fault mix to one request. Decision order per
// request is fixed — partition, drop, 5xx, delay, truncate — so a seed
// reproduces the same schedule for the same request sequence.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	if t.partitioned[req.URL.Host] {
		t.c.Partitions++
		t.mu.Unlock()
		return nil, &transportError{fmt.Sprintf("chaos: partitioned host %s: connection refused", req.URL.Host)}
	}
	drop := t.chance(t.cfg.DropRate)
	err5xx := !drop && t.chance(t.cfg.Err5xxRate)
	delay := !drop && !err5xx && t.chance(t.cfg.DelayRate)
	truncate := !drop && !err5xx && t.chance(t.cfg.TruncateRate)
	switch {
	case drop:
		t.c.Drops++
	case err5xx:
		t.c.Errs5xx++
	default:
		if delay {
			t.c.Delays++
		}
		if truncate {
			t.c.Truncates++
		}
		if !delay && !truncate {
			t.c.Passed++
		}
	}
	t.mu.Unlock()

	if drop {
		return nil, &transportError{fmt.Sprintf("chaos: dropped request to %s: connection reset by peer", req.URL.Host)}
	}
	if err5xx {
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      req.Proto,
			ProtoMajor: req.ProtoMajor,
			ProtoMinor: req.ProtoMinor,
			Header:     http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:       io.NopCloser(strings.NewReader("chaos: injected 503\n")),
			Request:    req,
		}, nil
	}
	if delay {
		timer := time.NewTimer(t.cfg.Delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil || !truncate {
		return resp, err
	}
	// Let roughly half the body through, then fail the read the way a dying
	// peer does.
	resp.Body = &truncatedBody{inner: resp.Body, remaining: truncateAt(resp.ContentLength)}
	resp.ContentLength = -1
	resp.Header.Del("Content-Length")
	return resp, nil
}

// truncateAt picks how many bytes of a body to deliver before the cut.
func truncateAt(contentLength int64) int64 {
	if contentLength > 1 {
		return contentLength / 2
	}
	return 16
}

// truncatedBody delivers a prefix of the wrapped body, then reports an
// unexpected EOF.
type truncatedBody struct {
	inner     io.ReadCloser
	remaining int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF {
		return n, io.EOF // body was shorter than the cut; pass the real end
	}
	if b.remaining <= 0 && err == nil {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }

// StoreCounters tallies injected store faults.
type StoreCounters struct {
	GetErrs uint64 `json:"get_errs"`
	PutErrs uint64 `json:"put_errs"`
	Passed  uint64 `json:"passed"`
}

// FlakyStore wraps a farm.Store and makes a seeded fraction of operations
// fail, the way a shared filesystem does under pressure. Injected Get
// errors present as corrupt entries (the farm counts them and recomputes);
// injected Put errors lose the write (the next miss recomputes). Safe for
// concurrent use.
type FlakyStore struct {
	inner      farm.Store
	getErrRate float64
	putErrRate float64

	mu    sync.Mutex
	state uint64
	c     StoreCounters
}

// NewFlakyStore wraps inner; getErrRate and putErrRate are probabilities in
// [0,1] drawn from a stream seeded by seed.
func NewFlakyStore(inner farm.Store, seed uint64, getErrRate, putErrRate float64) *FlakyStore {
	return &FlakyStore{inner: inner, getErrRate: getErrRate, putErrRate: putErrRate, state: seed}
}

// chance mirrors Transport.chance (caller holds mu).
func (s *FlakyStore) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return float64((z^(z>>31))>>11)/(1<<53) < p
}

// Counters returns a snapshot of the injection tallies.
func (s *FlakyStore) Counters() StoreCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// Get implements farm.Store.
func (s *FlakyStore) Get(key string) (*cpelide.Report, bool, error) {
	s.mu.Lock()
	fail := s.chance(s.getErrRate)
	if fail {
		s.c.GetErrs++
	} else {
		s.c.Passed++
	}
	s.mu.Unlock()
	if fail {
		return nil, false, fmt.Errorf("chaos: injected store read error for %s", key)
	}
	return s.inner.Get(key)
}

// Put implements farm.Store.
func (s *FlakyStore) Put(key string, rep *cpelide.Report) error {
	s.mu.Lock()
	fail := s.chance(s.putErrRate)
	if fail {
		s.c.PutErrs++
	} else {
		s.c.Passed++
	}
	s.mu.Unlock()
	if fail {
		return fmt.Errorf("chaos: injected store write error for %s", key)
	}
	return s.inner.Put(key, rep)
}
