// Package diskstore is the server's persistent content-addressed result
// store: one JSON file per simulation report, keyed by the farm's canonical
// job hash, sharded across 256 subdirectories by the key's first byte.
//
// The store sits underneath the farm's in-memory LRU (farm.Options.Store):
// a server that restarts warm-starts its cache from disk, so a job
// resubmitted after a restart is a store hit, not a recompute.
//
// Integrity: each entry is a versioned envelope ("diskstore/v1") carrying
// the raw report JSON plus its CRC-32C, so a bit-flipped or truncated file
// is detected on read rather than served as a "deterministic" result. A
// corrupt entry is moved to root/quarantine/ for post-mortem and reported
// as an error — the farm counts it and recomputes, so corruption degrades
// to a cache miss, never a wrong answer. A file without a known envelope
// version, including bare report JSON, is corrupt.
//
// Concurrency and durability: writes go to a unique temp file in the store
// root, are fsynced, and are published with os.Rename followed by an fsync
// of the shard directory — readers in any process see either the complete
// report or nothing, and a published entry survives power loss, not just
// process death. Duplicate writes of the same key are idempotent —
// simulation results are deterministic, so last-rename-wins replaces equal
// bytes with equal bytes.
//
// Layout:
//
//	root/
//	  ab/
//	    ab3f...64 hex...c2.json
//	  quarantine/
//	    ab3f...64 hex...c2.json   (corrupt entries, moved aside)
package diskstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro"
)

// ErrBadKey rejects keys that are not 64 lowercase hex characters (the
// farm's canonical SHA-256 job hash). Guards both cache aliasing and path
// traversal, since keys become file names.
var ErrBadKey = errors.New("diskstore: key is not a canonical job hash")

// ErrCorrupt marks an entry whose bytes failed integrity validation; the
// file has been quarantined by the time the error is returned.
var ErrCorrupt = errors.New("diskstore: corrupt entry")

// Schema identifies the current envelope version.
const Schema = "diskstore/v1"

// quarantineDir is where corrupt entries are moved. Its name is longer than
// a 2-character shard, so the key scan never descends into it.
const quarantineDir = "quarantine"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// envelope is the on-disk frame: the raw report JSON plus its checksum.
type envelope struct {
	Schema string          `json:"schema"`
	CRC    string          `json:"crc32c"`
	Report json.RawMessage `json:"report"`
}

// Store is a content-addressed on-disk report store rooted at one
// directory. Methods are safe for concurrent use across goroutines and
// across processes sharing the directory.
type Store struct {
	root string

	// OnCorrupt, when set, is called with the key of every entry that
	// fails integrity validation and is quarantined. Set it before the
	// store is shared across goroutines; it may be called concurrently.
	OnCorrupt func(key string)

	corrupt atomic.Uint64
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("diskstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: open %s: %w", dir, err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

// CorruptCount reports how many entries this store handle has quarantined.
func (s *Store) CorruptCount() uint64 { return s.corrupt.Load() }

// checkKey validates the canonical-hash shape.
func checkKey(key string) error {
	if len(key) != 64 {
		return fmt.Errorf("diskstore: key %q: %w", key, ErrBadKey)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("diskstore: key %q: %w", key, ErrBadKey)
		}
	}
	return nil
}

// path maps a validated key to its file.
func (s *Store) path(key string) string {
	return filepath.Join(s.root, key[:2], key+".json")
}

// Get loads the report stored under key. ok is false (with a nil error)
// when the key has never been stored; a present-but-invalid entry is
// quarantined and returned as an error wrapping ErrCorrupt so callers can
// count corruption separately from misses.
func (s *Store) Get(key string) (*cpelide.Report, bool, error) {
	if err := checkKey(key); err != nil {
		return nil, false, err
	}
	b, err := os.ReadFile(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("diskstore: get %s: %w", key, err)
	}
	rep, err := decode(b)
	if err != nil {
		return nil, false, s.quarantine(key, err)
	}
	return rep, true, nil
}

// decode validates and unwraps one entry's bytes. Only a Schema envelope
// whose checksum matches its report payload decodes.
func decode(b []byte) (*cpelide.Report, error) {
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("unparseable: %w", err)
	}
	if env.Schema != Schema {
		return nil, fmt.Errorf("unknown schema %q", env.Schema)
	}
	if got := fmt.Sprintf("%08x", crc32.Checksum(env.Report, crcTable)); got != env.CRC {
		return nil, fmt.Errorf("crc32c %s, file claims %s", got, env.CRC)
	}
	rep := new(cpelide.Report)
	if err := json.Unmarshal(env.Report, rep); err != nil {
		return nil, fmt.Errorf("bad report payload: %w", err)
	}
	return rep, nil
}

// quarantine moves a corrupt entry aside and returns the caller-facing
// error. The move is best-effort: if it fails the file stays put, but the
// read still fails closed.
func (s *Store) quarantine(key string, cause error) error {
	s.corrupt.Add(1)
	qdir := filepath.Join(s.root, quarantineDir)
	moveErr := os.MkdirAll(qdir, 0o755)
	if moveErr == nil {
		moveErr = os.Rename(s.path(key), filepath.Join(qdir, key+".json"))
	}
	if s.OnCorrupt != nil {
		s.OnCorrupt(key)
	}
	if moveErr != nil {
		return fmt.Errorf("diskstore: get %s: %w (%v; quarantine failed: %v)", key, ErrCorrupt, cause, moveErr)
	}
	return fmt.Errorf("diskstore: get %s: %w (%v; moved to %s/)", key, ErrCorrupt, cause, quarantineDir)
}

// Put stores rep under key, atomically replacing any existing entry. The
// entry is fsynced before and the shard directory after the publishing
// rename, so a completed Put survives power loss.
func (s *Store) Put(key string, rep *cpelide.Report) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if rep == nil {
		return errors.New("diskstore: put nil report")
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("diskstore: put %s: %w", key, err)
	}
	b, err := json.Marshal(envelope{
		Schema: Schema,
		CRC:    fmt.Sprintf("%08x", crc32.Checksum(raw, crcTable)),
		Report: raw,
	})
	if err != nil {
		return fmt.Errorf("diskstore: put %s: %w", key, err)
	}
	shard := filepath.Join(s.root, key[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("diskstore: put %s: %w", key, err)
	}
	// Write-temp-then-rename publishes the entry atomically; the temp file
	// lives in the store root so the rename never crosses filesystems.
	tmp, err := os.CreateTemp(s.root, ".put-*")
	if err != nil {
		return fmt.Errorf("diskstore: put %s: %w", key, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("diskstore: put %s: %w", key, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("diskstore: put %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("diskstore: put %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		return fmt.Errorf("diskstore: put %s: %w", key, err)
	}
	if err := syncDir(shard); err != nil {
		return fmt.Errorf("diskstore: put %s: %w", key, err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Len counts the stored entries.
func (s *Store) Len() (int, error) {
	keys, err := s.keys()
	if err != nil {
		return 0, err
	}
	return len(keys), nil
}

// QuarantineCount counts the files currently in the quarantine directory.
func (s *Store) QuarantineCount() (int, error) {
	files, err := os.ReadDir(filepath.Join(s.root, quarantineDir))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("diskstore: scan quarantine: %w", err)
	}
	return len(files), nil
}

// entry pairs a key with its file modification time for recency ordering.
type entry struct {
	key     string
	modUnix int64
}

// keys walks the shard directories and returns every valid entry.
func (s *Store) keys() ([]entry, error) {
	shards, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("diskstore: scan %s: %w", s.root, err)
	}
	var out []entry
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.root, sh.Name()))
		if err != nil {
			continue // shard vanished mid-scan (concurrent cleanup)
		}
		for _, f := range files {
			key, found := strings.CutSuffix(f.Name(), ".json")
			if !found || checkKey(key) != nil {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			out = append(out, entry{key: key, modUnix: info.ModTime().UnixNano()})
		}
	}
	return out, nil
}

// RecentKeys returns up to limit stored keys, most recently written first
// (ties broken by key so the order is stable). limit <= 0 returns all. The
// farm's warm-start uses this to reload the hottest results into its LRU.
func (s *Store) RecentKeys(limit int) ([]string, error) {
	entries, err := s.keys()
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].modUnix != entries[j].modUnix {
			return entries[i].modUnix > entries[j].modUnix
		}
		return entries[i].key < entries[j].key
	})
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
	}
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.key
	}
	return keys, nil
}
