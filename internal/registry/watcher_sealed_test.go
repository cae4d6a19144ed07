package registry

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"profitmining/internal/core"
	"profitmining/internal/model"
	"profitmining/internal/modelio"
)

// sealModel renders a recommender into the sealed arena image.
func sealModel(t *testing.T, cat *model.Catalog, rec *core.Recommender) []byte {
	t.Helper()
	data, err := modelio.Seal(cat, rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWatcherStagesSealedModel walks a sealed model file through the
// watcher lifecycle. The staging identity must be the embedded header
// checksum — no whole-file hashing pass on the poll path — and
// corruption must either be rejected or, when the damaged file still
// claims the serving identity, be ignored while the active snapshot
// keeps serving.
func TestWatcherStagesSealedModel(t *testing.T) {
	catA, recA := buildGrocery(t, 800, 3)
	catB, recB := buildGrocery(t, 1000, 7)
	sealedA := sealModel(t, catA, recA)
	sealedB := sealModel(t, catB, recB)
	hashA := modelio.ContentHash(sealedA)
	hashB := modelio.ContentHash(sealedB)
	if hashA == hashB {
		t.Fatal("test models must differ")
	}
	if hashA == HashBytes(sealedA) {
		t.Fatal("sealed content hash should be the header checksum, not the file sha256")
	}

	path := filepath.Join(t.TempDir(), "model.pma")
	writeFile(t, path, sealedA)

	reg, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatcher(reg, path, 50*time.Millisecond, t.Logf)
	if err != nil {
		t.Fatal(err)
	}

	snap, outcome, err := w.Check()
	if err != nil || outcome != Promoted {
		t.Fatalf("initial sealed check: outcome %v, err %v", outcome, err)
	}
	if snap.Hash != hashA {
		t.Fatalf("sealed snapshot hash %.8s, want header checksum %.8s", snap.Hash, hashA)
	}
	if snap.Rec.Sealed() == nil {
		t.Fatal("watcher staged a sealed file as a heap model")
	}

	// Unchanged file, then an identical rewrite: both cheap no-ops.
	if _, outcome, err := w.Check(); err != nil || outcome != Unchanged {
		t.Fatalf("unchanged check: outcome %v, err %v", outcome, err)
	}
	writeFile(t, path, sealedA)
	if _, outcome, err := w.Check(); err != nil || outcome != Unchanged {
		t.Fatalf("identical sealed rewrite: outcome %v, err %v", outcome, err)
	}

	// New sealed content promotes version 2.
	writeFile(t, path, sealedB)
	snap, outcome, err = w.Check()
	if err != nil || outcome != Promoted {
		t.Fatalf("sealed swap: outcome %v, err %v", outcome, err)
	}
	if snap.Hash != hashB || reg.Active().Version != 2 {
		t.Fatal("sealed swap did not promote the new content")
	}

	// A flipped payload byte with an intact header still claims hash B —
	// the identity already serving — so the watcher must not restage it,
	// and version 2 keeps serving untouched.
	tornB := append([]byte(nil), sealedB...)
	tornB[len(tornB)-10] ^= 0x40
	writeFile(t, path, tornB)
	if _, outcome, err := w.Check(); err != nil || outcome != Unchanged {
		t.Fatalf("payload corruption claiming the active hash: outcome %v, err %v", outcome, err)
	}
	if reg.Active().Hash != hashB {
		t.Fatal("corrupt rewrite disturbed the active snapshot")
	}

	// A flipped checksum byte presents a new identity that fails Verify:
	// rejected, active keeps serving. The rejection memo is deliberately
	// keyed on the file's true content bytes (so a torn write that later
	// completes is retried), which means suppression of an unchanged
	// corrupt file falls to the stat fast path — give the file a settled
	// mtime (outside the slack window) so that path can engage.
	badSum := append([]byte(nil), sealedB...)
	badSum[20] ^= 0x01
	if err := os.WriteFile(path, badSum, 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-10 * time.Second)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := w.Check(); err == nil || outcome != Rejected {
		t.Fatalf("corrupt sealed checksum: outcome %v, err %v", outcome, err)
	}
	if reg.Active().Hash != hashB {
		t.Fatal("rejected sealed candidate disturbed the active snapshot")
	}
	if _, outcome, err := w.Check(); err != nil || outcome != Unchanged {
		t.Fatalf("watcher re-opened a remembered bad sealed file: outcome %v, err %v", outcome, err)
	}

	// Recovery without restart.
	writeFile(t, path, sealedA)
	if _, outcome, err := w.Check(); err != nil || outcome != Promoted {
		t.Fatalf("sealed recovery: outcome %v, err %v", outcome, err)
	}
	if reg.Active().Version != 3 || reg.Active().Hash != hashA {
		t.Fatal("sealed recovery did not promote")
	}
}

// TestWatcherSealedSameTickSameSizeRewrite is the sealed twin of the
// "racily clean" regression: replacing a sealed file with same-size
// different-content bytes within the mtime tick of the memoizing read
// must still be detected. The header-hash fast path replaces the
// whole-file hashing pass, but it must not inherit the stat fast
// path's blind spot.
func TestWatcherSealedSameTickSameSizeRewrite(t *testing.T) {
	catA, recA := buildGrocery(t, 800, 3)
	sealedA := sealModel(t, catA, recA)
	// Same length, different bytes, different header hash: damage the
	// stored checksum itself so the rewrite presents a fresh identity.
	sealedX := append([]byte(nil), sealedA...)
	sealedX[20] ^= 0x01

	path := filepath.Join(t.TempDir(), "model.pma")
	tick := time.Now().Truncate(time.Second)
	writeAt := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, tick, tick); err != nil {
			t.Fatal(err)
		}
	}

	reg, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatcher(reg, path, 50*time.Millisecond, t.Logf)
	if err != nil {
		t.Fatal(err)
	}

	writeAt(sealedA)
	if _, outcome, err := w.Check(); err != nil || outcome != Promoted {
		t.Fatalf("initial sealed model: outcome %v, err %v", outcome, err)
	}

	// Same size, same mtime, different bytes. A stat-only fast path
	// would report Unchanged and serve the stale model; the watcher must
	// read the header and notice the new (here: corrupt, so rejected)
	// content.
	writeAt(sealedX)
	if _, outcome, err := w.Check(); err == nil || outcome != Rejected {
		t.Fatalf("same-tick same-size sealed rewrite missed: outcome %v, err %v", outcome, err)
	}
	if reg.Active().Hash != modelio.ContentHash(sealedA) {
		t.Fatal("rejected rewrite disturbed the active snapshot")
	}
}

// TestWatcherRejectsOldSealedVersion: a file with the sealed magic but a
// header of another format version is rejected with the header's own
// error, not sent to the JSON decoder, and the rejection is memoized by
// content hash until the file changes.
func TestWatcherRejectsOldSealedVersion(t *testing.T) {
	catA, recA := buildGrocery(t, 800, 3)
	sealedA := sealModel(t, catA, recA)
	old := append([]byte(nil), sealedA...)
	binary.LittleEndian.PutUint32(old[8:], 1)

	path := filepath.Join(t.TempDir(), "model.pma")
	writeFile(t, path, old)
	reg, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatcher(reg, path, 50*time.Millisecond, t.Logf)
	if err != nil {
		t.Fatal(err)
	}

	_, outcome, err := w.Check()
	if outcome != Rejected || err == nil || !strings.Contains(err.Error(), "unsupported sealed format version 1") {
		t.Fatalf("version-1 sealed file: outcome %v, err %v; want a rejection naming the format version", outcome, err)
	}
	if reg.Active() != nil {
		t.Fatal("rejected candidate was promoted")
	}
	writeFile(t, path, old)
	if _, outcome, err := w.Check(); err != nil || outcome != Unchanged {
		t.Fatalf("identical rewrite of a rejected file: outcome %v, err %v; want the content-hash memo to hold", outcome, err)
	}

	writeFile(t, path, sealedA)
	if _, outcome, err := w.Check(); err != nil || outcome != Promoted {
		t.Fatalf("current-version rewrite: outcome %v, err %v", outcome, err)
	}
}
