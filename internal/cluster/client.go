package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// Worker is one farm node as the coordinator sees it: a name, which routing
// hashes, and a base URL.
type Worker struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// registerBackoff paces registration retries: a worker often boots before
// its coordinator, so the client keeps knocking with full-jitter backoff.
const (
	registerAttempts  = 8
	registerBaseDelay = 100 * time.Millisecond
)

// heartbeatInterval paces a worker's re-registration: a restarted
// coordinator relearns its membership within one interval.
const heartbeatInterval = time.Second

// RegisterWorker announces a worker to the coordinator, retrying with
// full-jitter exponential backoff until the coordinator answers or ctx ends.
// Registration is idempotent: re-registering the same name updates its URL.
func RegisterWorker(ctx context.Context, hc *http.Client, coordinatorURL string, w Worker) error {
	var last error
	for attempt := 0; attempt < registerAttempts; attempt++ {
		if attempt > 0 {
			delay := registerBaseDelay << (attempt - 1)
			jittered := time.Duration(rand.Int63n(int64(delay) + 1))
			select {
			case <-ctx.Done():
				return fmt.Errorf("cluster: register %s: %w (last: %v)", w.Name, ctx.Err(), last)
			case <-time.After(jittered):
			}
		}
		code, err := register(ctx, hc, coordinatorURL, w)
		if err == nil {
			return nil
		}
		last = err
		// 4xx means the registration itself is bad; retrying won't help.
		if code >= 400 && code < 500 {
			return fmt.Errorf("cluster: register %s: %w", w.Name, last)
		}
	}
	return fmt.Errorf("cluster: register %s: gave up after %d attempts: %w",
		w.Name, registerAttempts, last)
}

// Heartbeat re-sends w's registration every heartbeatInterval until the
// returned stop is called, so a coordinator that restarted with no state
// relearns its workers within a second. A failed beat is dropped; the next
// one retries. stop waits for a beat in flight, so a DeregisterWorker sent
// after it returns is not undone by a late registration.
func Heartbeat(hc *http.Client, coordinatorURL string, w Worker) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(heartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			beatCtx, cancelBeat := context.WithTimeout(ctx, heartbeatInterval)
			_, _ = register(beatCtx, hc, coordinatorURL, w) // a failed beat is dropped; the next one retries
			cancelBeat()
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// register posts one registration and returns the coordinator's status
// code (0 when it never answered) and an error unless it answered 200.
func register(ctx context.Context, hc *http.Client, coordinatorURL string, w Worker) (int, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	body, err := json.Marshal(w)
	if err != nil {
		return 0, fmt.Errorf("cluster: encode registration: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		coordinatorURL+"/v1/workers/register", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("coordinator answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp.StatusCode, nil
}

// DeregisterWorker removes a worker from the coordinator's backend set, used
// for clean shutdowns so routing skips it at once instead of waiting for the
// health checker to notice. A missing worker is not an error.
func DeregisterWorker(ctx context.Context, hc *http.Client, coordinatorURL, name string) error {
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		coordinatorURL+"/v1/workers/"+name, nil)
	if err != nil {
		return fmt.Errorf("cluster: deregister %s: %w", name, err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: deregister %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("cluster: deregister %s: coordinator answered %d: %s",
			name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}
