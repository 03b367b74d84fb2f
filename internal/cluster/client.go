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

// RegisterWorker announces a worker to the coordinator, retrying with
// full-jitter exponential backoff until the coordinator answers or ctx ends.
// Registration is idempotent: re-registering the same name updates its URL.
func RegisterWorker(ctx context.Context, hc *http.Client, coordinatorURL string, w Worker) error {
	if hc == nil {
		hc = http.DefaultClient
	}
	body, err := json.Marshal(w)
	if err != nil {
		return fmt.Errorf("cluster: encode registration: %w", err)
	}
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
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			coordinatorURL+"/v1/workers/register", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("cluster: register %s: %w", w.Name, err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			last = err
			continue
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		last = fmt.Errorf("coordinator answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		// 4xx means the registration itself is bad; retrying won't help.
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return fmt.Errorf("cluster: register %s: %w", w.Name, last)
		}
	}
	return fmt.Errorf("cluster: register %s: gave up after %d attempts: %w",
		w.Name, registerAttempts, last)
}

// DeregisterWorker removes a worker from the coordinator's backend set, used
// for clean shutdowns so its jobs move immediately instead of waiting for the
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
