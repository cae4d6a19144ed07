package registry

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"time"

	"profitmining/internal/arena"
	"profitmining/internal/core"
	"profitmining/internal/model"
	"profitmining/internal/modelio"
)

// Watcher polls a model file and feeds changed versions through the
// registry's validation gate. Change detection is two-level: a cheap
// stat (mtime + size) decides whether to read the file at all, and a
// content hash decides whether the bytes are actually new — an
// overwrite with identical content, or a touch(1), never restages.
//
// The stat fast path is only trusted once the memoized mtime is
// comfortably older than the read that memoized it (mtimeSlack). A file
// rewritten with same-size content within one mtime tick — coarse
// filesystem timestamps, fast CI writers — stats identical to what was
// just read; re-hashing until the tick has safely passed closes that
// window (the same "racily clean" hazard git's index handles this way).
//
// A candidate that fails to load or validate is remembered by hash so
// the poll loop does not re-parse the same broken file every interval;
// the active snapshot keeps serving. A rejection memo is keyed on the
// active version too: rejections can be state-dependent (Options.Gate
// compares candidates against the then-active snapshot), so the same
// bytes are retried once the active model changes.
type Watcher struct {
	reg      *Registry
	path     string
	interval time.Duration
	logf     func(format string, args ...any)

	// memo of the last poll; Check is callable from both the poll loop
	// and /admin/reload, so the memo lives under a mutex.
	mu         sync.Mutex
	lastMod    time.Time
	lastSize   int64
	lastReadAt time.Time // when the memoized stat was taken

	lastHash       string // last content hash seen, accepted or rejected
	lastRejected   bool   // whether lastHash was rejected
	lastHashActive int    // active version when lastHash was memoized
}

// mtimeSlack is how much older than its read a memoized mtime must be
// before an unchanged stat is trusted to mean unchanged content.
const mtimeSlack = 2 * time.Second

// NewWatcher creates a watcher over path polling at interval (minimum
// 10ms). logf receives one line per state change (nil discards).
func NewWatcher(reg *Registry, path string, interval time.Duration, logf func(string, ...any)) (*Watcher, error) {
	if reg == nil {
		return nil, fmt.Errorf("registry: watcher needs a registry")
	}
	if path == "" {
		return nil, fmt.Errorf("registry: watcher needs a model path")
	}
	if interval < 10*time.Millisecond {
		return nil, fmt.Errorf("registry: poll interval %v below 10ms", interval)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Watcher{reg: reg, path: path, interval: interval, logf: logf}, nil
}

// Run polls until ctx is done. The first poll happens immediately.
func (w *Watcher) Run(ctx context.Context) {
	ticker := time.NewTicker(w.interval)
	defer ticker.Stop()
	for {
		if _, _, err := w.Check(); err != nil {
			w.logf("registry: watch %s: %v", w.path, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// Check performs one poll: stat, hash, load, validate, submit. It is
// safe to call concurrently with the poll loop (/admin/reload does);
// concurrent calls serialize. The returned snapshot is non-nil when the
// outcome is Promoted or Staged.
func (w *Watcher) Check() (*Snapshot, Outcome, error) {
	w.mu.Lock()
	defer w.mu.Unlock()

	info, err := os.Stat(w.path)
	if err != nil {
		return nil, Rejected, fmt.Errorf("stat model file: %w", err)
	}
	if info.ModTime().Equal(w.lastMod) && info.Size() == w.lastSize &&
		w.lastReadAt.Sub(w.lastMod) >= mtimeSlack {
		// Unchanged stat, and the mtime tick had safely passed when we
		// last read: any later write would have bumped the mtime.
		return nil, Unchanged, nil
	}
	// Sealed models carry their content hash in the first 48 bytes, so
	// identifying one costs a header read per changed stat, not a
	// whole-file hashing pass.
	hash, sealed, headerErr := w.sealedHeaderHash()
	if sealed && headerErr == nil {
		return w.checkSealed(info, hash)
	}

	data, err := os.ReadFile(w.path)
	if err != nil {
		return nil, Rejected, fmt.Errorf("read model file: %w", err)
	}
	// Memoize the stat only after a successful read, so a read that
	// raced a writer is retried next poll.
	w.lastMod, w.lastSize, w.lastReadAt = info.ModTime(), info.Size(), time.Now()

	hash = HashBytes(data)
	activeVer, unchanged := w.dedupHash(hash)
	if unchanged {
		return nil, Unchanged, nil
	}

	if sealed {
		// Sealed magic with a header no loader reads (an older format
		// version, or a truncated prefix): reject with the header's own
		// error, memoized by content hash like any other rejection.
		w.lastRejected, w.lastHashActive = true, activeVer
		w.logf("registry: candidate %s (%.8s) rejected: %v", w.path, hash, headerErr)
		return nil, Rejected, fmt.Errorf("load sealed candidate: %w", headerErr)
	}
	cat, rec, err := modelio.Load(bytes.NewReader(data))
	if err != nil {
		w.lastRejected, w.lastHashActive = true, activeVer
		w.logf("registry: candidate %s (%.8s) rejected: %v", w.path, hash, err)
		return nil, Rejected, fmt.Errorf("load candidate: %w", err)
	}
	return w.submit(cat, rec, hash)
}

// checkSealed stages a sealed model file: dedup by the embedded header
// checksum, then mmap-open and fully verify once per new content hash.
func (w *Watcher) checkSealed(info os.FileInfo, hash string) (*Snapshot, Outcome, error) {
	// The header read replaces the whole-file read of the JSON path; the
	// stat memo carries the same raced-writer caveat, covered the same
	// way (mtimeSlack re-reads until the tick has safely passed).
	w.lastMod, w.lastSize, w.lastReadAt = info.ModTime(), info.Size(), time.Now()

	activeVer, unchanged := w.dedupHash(hash)
	if unchanged {
		return nil, Unchanged, nil
	}
	cat, rec, err := modelio.OpenSealed(w.path, arena.Options{})
	if err != nil {
		// A failed open or checksum may be a torn write we raced: the
		// finished file would carry this same header hash, so a memo
		// keyed on it would reject the finished file forever. Re-key the
		// rejection on the true content bytes; if the writer has since
		// finished, the next poll sees a hash the memo does not cover.
		if data, rerr := os.ReadFile(w.path); rerr == nil {
			sum := sha256.Sum256(data)
			w.lastHash = hex.EncodeToString(sum[:])
		} else {
			w.lastHash = ""
		}
		w.lastRejected, w.lastHashActive = true, activeVer
		w.logf("registry: candidate %s (%.8s) rejected: %v", w.path, hash, err)
		return nil, Rejected, fmt.Errorf("load sealed candidate: %w", err)
	}
	return w.submit(cat, rec, hash)
}

// sealedHeaderHash reads the fixed header prefix. sealed reports whether
// the file starts with the sealed magic; if it does, the embedded content
// hash is returned, or the header's error when the prefix is truncated or
// names another format version.
func (w *Watcher) sealedHeaderHash() (hash string, sealed bool, err error) {
	f, err := os.Open(w.path)
	if err != nil {
		return "", false, nil // the JSON path's read reports it
	}
	defer f.Close()
	var prefix [arena.HeaderPrefixLen]byte
	n, _ := f.ReadAt(prefix[:], 0) //lint:allow droppederr -- a short or failed read fails SniffMagic or HeaderHash below, and both outcomes are handled
	if !arena.SniffMagic(prefix[:n]) {
		return "", false, nil
	}
	hash, err = arena.HeaderHash(prefix[:n])
	return hash, true, err
}

// dedupHash runs the shared memo logic for a freshly determined content
// hash: already-serving and already-staged bytes are Unchanged, as is a
// standing memo (rejections only hold while the active version they
// were made against still serves — gate rejections are state-dependent).
// Otherwise the hash is memoized as in-progress and the caller loads.
func (w *Watcher) dedupHash(hash string) (activeVer int, unchanged bool) {
	if a := w.reg.Active(); a != nil {
		activeVer = a.Version
		if hash == a.Hash {
			// The file holds exactly the bytes being served (e.g. an
			// in-process refresh promoted them); nothing to resubmit.
			w.lastHash, w.lastRejected, w.lastHashActive = hash, false, activeVer
			return activeVer, true
		}
	}
	if st := w.reg.Staged(); st != nil && hash == st.Hash {
		w.lastHash, w.lastRejected, w.lastHashActive = hash, false, activeVer
		return activeVer, true
	}
	if hash == w.lastHash && (!w.lastRejected || activeVer == w.lastHashActive) {
		return activeVer, true
	}
	w.lastHash = hash
	return activeVer, false
}

// submit feeds a loaded candidate through the registry and memoizes the
// outcome against the post-Submit active version: when this very Submit
// promoted the candidate, the memo must not read our own promotion as
// an invalidation on the next poll.
func (w *Watcher) submit(cat *model.Catalog, rec *core.Recommender, hash string) (*Snapshot, Outcome, error) {
	snap, outcome, err := w.reg.Submit(cat, rec, w.path, hash)
	w.lastRejected = err != nil
	if a := w.reg.Active(); a != nil {
		w.lastHashActive = a.Version
	} else {
		w.lastHashActive = 0
	}
	if err != nil {
		w.logf("registry: candidate %s (%.8s) rejected: %v", w.path, hash, err)
		return nil, outcome, err
	}
	w.logf("registry: version %d (%.8s) %s from %s", snap.Version, hash, outcome, w.path)
	return snap, outcome, nil
}

// Path returns the watched model file.
func (w *Watcher) Path() string { return w.path }

// HashBytes is the content hash the watcher uses, exported so initial
// loads outside the poll loop stamp snapshots identically.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
