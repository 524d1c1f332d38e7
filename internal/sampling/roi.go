package sampling

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tridentsp/internal/checkpoint"
)

// ROICache is an on-disk library of region-of-interest checkpoints: one
// architectural snapshot per interval-grid boundary, taken at the point the
// warm-up window begins. Functional execution is config-independent
// (architectural transparency), so a sweep builds the cache once — whichever
// variant runs first pays for the functional work — and every later
// (config, seed) variant of the same workload restores snapshots instead of
// re-executing the gaps.
//
// The key binds workload, scale, and the sampling grid (interval and warm-up
// lengths fix each snapshot's position); each file's meta line additionally
// pins its boundary index and instruction position, so a misplaced or stale
// file reads as a miss, never as silent corruption (payload integrity is the
// checkpoint codec's CRC). The meta format is "roi4", the version of
// SaveROI's payload (mark "core.roi4"), so files from older payload formats
// read as misses and are rebuilt rather than failing the restore.
//
// The cache is safe under concurrency at two levels. In-process, counters
// are mutex-guarded and LoadOrBuild deduplicates per-slot builds through a
// per-path singleflight table (grid sweeps sharing one cache directory
// build each boundary once). Cross-process, a build takes an O_EXCL lock
// file next to the snapshot; contenders poll the snapshot into existence
// instead of re-executing, and a lock older than its liveness window is
// presumed abandoned (a crashed builder) and stolen.
type ROICache struct {
	Dir      string
	Bench    string
	Scale    string
	Interval uint64
	Warmup   uint64

	mu     sync.Mutex
	hits   int
	misses int
}

// NewROICache describes (without touching) the cache directory for one
// workload under one sampling grid.
func NewROICache(dir, bench, scale string, cfg Config) *ROICache {
	cfg = cfg.WithDefaults()
	return &ROICache{Dir: dir, Bench: bench, Scale: scale, Interval: cfg.Interval, Warmup: cfg.Warmup}
}

// Stats reports the lookups this cache object resolved: snapshots restored
// from disk versus built by executing the gap.
func (r *ROICache) Stats() (hits, misses int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits, r.misses
}

func (r *ROICache) key() string {
	return fmt.Sprintf("%s_%s_i%d_w%d", r.Bench, r.Scale, r.Interval, r.Warmup)
}

// Path returns the file holding boundary k's snapshot.
func (r *ROICache) Path(k uint64) string {
	return filepath.Join(r.Dir, fmt.Sprintf("%s_k%d.roi", r.key(), k))
}

func (r *ROICache) meta(k uint64) string {
	return fmt.Sprintf("roi4 %s k=%d at=%d", r.key(), k, k*r.Interval-r.Warmup)
}

// load fetches boundary k's snapshot without touching the counters; a
// missing, corrupt, or mismatched file is a miss.
func (r *ROICache) load(k uint64) ([]byte, bool) {
	meta, payload, err := checkpoint.ReadFile(r.Path(k))
	if err != nil || meta != r.meta(k) {
		return nil, false
	}
	return payload, true
}

// Load fetches boundary k's snapshot, counting the outcome.
func (r *ROICache) Load(k uint64) ([]byte, bool) {
	payload, ok := r.load(k)
	r.count(ok)
	return payload, ok
}

func (r *ROICache) count(hit bool) {
	r.mu.Lock()
	if hit {
		r.hits++
	} else {
		r.misses++
	}
	r.mu.Unlock()
}

// Save atomically writes boundary k's snapshot, creating the cache
// directory on first use.
func (r *ROICache) Save(k uint64, payload []byte) error {
	if err := os.MkdirAll(r.Dir, 0o755); err != nil {
		return err
	}
	return checkpoint.WriteFile(r.Path(k), r.meta(k), payload)
}

// Per-path singleflight table: concurrent LoadOrBuild calls for the same
// snapshot file — from any ROICache object in this process — serialize, so
// exactly one executes the build and the rest read its output from disk.
var (
	roiFlightMu sync.Mutex
	roiFlight   = map[string]*sync.Mutex{}
)

func roiPathLock(path string) *sync.Mutex {
	roiFlightMu.Lock()
	defer roiFlightMu.Unlock()
	m := roiFlight[path]
	if m == nil {
		m = &sync.Mutex{}
		roiFlight[path] = m
	}
	return m
}

// roiLockStale is how old a lock file must be before a contender presumes
// its holder crashed and steals the build.
const roiLockStale = 10 * time.Second

// LoadOrBuild returns boundary k's snapshot, restoring it from disk when
// present and otherwise running build (which must advance the machine to
// the boundary and serialize it) and publishing the result. Exactly one hit
// or miss is counted per call. Concurrent callers — in this process or
// another sharing the cache directory — build each snapshot once: later
// callers block on the singleflight mutex or the on-disk lock file and then
// read the published snapshot. A build error is returned verbatim; the
// snapshot is simply not published (duplicate builds by other processes are
// benign — Save is atomic and both write identical bytes).
func (r *ROICache) LoadOrBuild(k uint64, build func() ([]byte, error)) ([]byte, error) {
	path := r.Path(k)
	flight := roiPathLock(path)
	flight.Lock()
	defer flight.Unlock()
	if payload, ok := r.load(k); ok {
		r.count(true)
		return payload, nil
	}
	release, err := r.acquireFileLock(path + ".lock")
	if err != nil {
		return nil, err
	}
	if release != nil {
		defer release()
	}
	// A process that held the lock may have published while we waited.
	if payload, ok := r.load(k); ok {
		r.count(true)
		return payload, nil
	}
	payload, err := build()
	if err != nil {
		return nil, err
	}
	r.count(false)
	if err := r.Save(k, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// acquireFileLock takes the cross-process build lock, polling while another
// live process holds it and stealing it when it has gone stale. The release
// func is nil only when lock creation is impossible (the error says why).
func (r *ROICache) acquireFileLock(lockPath string) (func(), error) {
	if err := os.MkdirAll(r.Dir, 0o755); err != nil {
		return nil, err
	}
	for {
		f, err := os.OpenFile(lockPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			return func() { os.Remove(lockPath) }, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("sampling: roi lock %s: %w", lockPath, err)
		}
		if st, serr := os.Stat(lockPath); serr == nil && time.Since(st.ModTime()) > roiLockStale {
			os.Remove(lockPath) // abandoned by a crashed builder
			continue
		}
		time.Sleep(10 * time.Millisecond)
	}
}
