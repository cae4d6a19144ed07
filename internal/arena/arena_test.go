package arena_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"profitmining/internal/arena"
	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/modelio"
)

// sealedGrocery builds the deterministic grocery model once and returns
// its sealed image. The grocery world has a real concept hierarchy and
// multi-promo items, so every section of the format is non-trivially
// populated.
func sealedGrocery(t testing.TB) ([]byte, *core.Recommender) {
	t.Helper()
	g := datagen.NewGrocery(500, 7)
	space, err := g.Builder.Compile(hierarchy.Options{MOA: true})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := mining.Mine(space, g.Dataset.Transactions, mining.Options{MinSupport: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Build(space, g.Dataset.Transactions, mined, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := modelio.Seal(g.Dataset.Catalog, rec)
	if err != nil {
		t.Fatal(err)
	}
	return data, rec
}

func TestSealedRoundTripMeta(t *testing.T) {
	data, rec := sealedGrocery(t)
	if !arena.SniffMagic(data) {
		t.Fatal("sealed image does not sniff as sealed")
	}
	m, err := arena.OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	meta := m.Meta()
	if meta.NumFinal != st.RulesFinal || meta.Generated != st.RulesGenerated ||
		meta.NonDominated != st.RulesNonDominated || meta.TreeDepth != st.TreeDepth {
		t.Errorf("meta %+v does not reproduce build stats %+v", meta, st)
	}
	if rt := m.Rules(); rt.N() < meta.NumFinal || meta.NumFinal == 0 {
		t.Errorf("rule table holds %d rules, meta claims %d final", m.Rules().N(), meta.NumFinal)
	}
	hash, err := arena.HeaderHash(data[:arena.HeaderPrefixLen])
	if err != nil {
		t.Fatal(err)
	}
	if hash != m.ContentHash() {
		t.Errorf("HeaderHash %s != ContentHash %s", hash, m.ContentHash())
	}
	cat, err := m.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if cat.NumItems() != meta.NumItems || cat.NumPromos() != meta.NumPromos {
		t.Errorf("catalog materialized %d items/%d promos, meta says %d/%d",
			cat.NumItems(), cat.NumPromos(), meta.NumItems, meta.NumPromos)
	}
}

// TestBitFlipEverySection flips one bit in the middle of every
// non-empty section and requires the file to fail loudly: either Open
// rejects the structure, or Open succeeds and Verify rejects the
// checksum. A flip that neither rejects would serve corrupt data.
func TestBitFlipEverySection(t *testing.T) {
	data, _ := sealedGrocery(t)
	for sec := 0; sec < arena.NumSections; sec++ {
		off := binary.LittleEndian.Uint64(data[64+16*sec:])
		ln := binary.LittleEndian.Uint64(data[64+16*sec+8:])
		if ln == 0 {
			continue
		}
		mut := append([]byte(nil), data...)
		mut[off+ln/2] ^= 0x10
		m, err := arena.OpenBytes(mut)
		if err != nil {
			continue // structural validation caught it at open
		}
		if err := m.Verify(); err == nil {
			t.Errorf("section %d: bit flip at %d survived Open and Verify", sec, off+ln/2)
		}
	}
}

// TestChecksumFlip corrupts the stored digest itself.
func TestChecksumFlip(t *testing.T) {
	data, _ := sealedGrocery(t)
	mut := append([]byte(nil), data...)
	mut[20] ^= 0x01 // inside the header checksum [16:48)
	m, err := arena.OpenBytes(mut)
	if err != nil {
		return
	}
	if err := m.Verify(); err == nil {
		t.Error("flipped checksum byte passed Verify")
	}
}

// TestTruncatedTail cuts the file at several points; every cut must
// fail Open (never Verify-later): a truncated mapping must not hand out
// views at all.
func TestTruncatedTail(t *testing.T) {
	data, _ := sealedGrocery(t)
	for _, cut := range []int{len(data) - 1, len(data) - 100, len(data) / 2, 700, 100, 10, 0} {
		if _, err := arena.OpenBytes(append([]byte(nil), data[:cut]...)); err == nil {
			t.Errorf("file truncated to %d bytes opened cleanly", cut)
		}
	}
}

// TestHeaderCorruption damages each header field in turn; Open must
// reject every variant before any view exists.
func TestHeaderCorruption(t *testing.T) {
	data, _ := sealedGrocery(t)
	cases := []struct {
		name string
		mut  func(b []byte)
	}{
		{"bad magic", func(b []byte) { b[0] ^= 0xFF }},
		{"bad version", func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 99) }},
		{"version 1 image", func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1) }},
		{"wrong file size", func(b []byte) { binary.LittleEndian.PutUint64(b[48:], uint64(len(b)+8)) }},
		{"wrong section count", func(b []byte) { binary.LittleEndian.PutUint32(b[56:], 7) }},
		{"misaligned section offset", func(b []byte) {
			off := binary.LittleEndian.Uint64(b[64+16*arena.SecPromoItem:])
			binary.LittleEndian.PutUint64(b[64+16*arena.SecPromoItem:], off+4)
		}},
		{"overlapping sections", func(b []byte) {
			off := binary.LittleEndian.Uint64(b[64+16*arena.SecItemNameOff:])
			binary.LittleEndian.PutUint64(b[64+16*arena.SecItemNamePool:], off)
		}},
		{"section escapes file", func(b []byte) {
			binary.LittleEndian.PutUint64(b[64+16*arena.SecRuleBlobPool+8:], uint64(len(b)))
		}},
	}
	for _, tc := range cases {
		mut := append([]byte(nil), data...)
		tc.mut(mut)
		if _, err := arena.OpenBytes(mut); err == nil {
			t.Errorf("%s: Open accepted the damaged header", tc.name)
		}
	}
}

// secStart returns the file offset where section sec begins.
func secStart(b []byte, sec int) int {
	return int(binary.LittleEndian.Uint64(b[64+16*sec:]))
}

// resealed returns a copy of data changed by mut, with the header
// checksum recomputed so the change survives the digest check — a
// hand-crafted file rather than a corrupt one.
func resealed(data []byte, mut func(b []byte)) []byte {
	b := append([]byte(nil), data...)
	mut(b)
	reseal(b)
	return b
}

// reseal recomputes the stored sha256 over b[48:] into b[16:48).
func reseal(b []byte) {
	if len(b) >= arena.HeaderPrefixLen {
		sum := sha256.Sum256(b[arena.HeaderPrefixLen:])
		copy(b[16:arena.HeaderPrefixLen], sum[:])
	}
}

// crafted is a sealed image with a consistent checksum but one interior
// offset or index out of range.
type crafted struct {
	name string
	img  []byte
}

// craftedImages derives the crafted images from a good one. The first
// two used to pass Verify and then panic the serving path: an escaping
// blob offset in Blob, an escaping alternate rule index in
// RecommendTopK.
func craftedImages(data []byte) []crafted {
	put32 := func(sec, i int, v int32) func(b []byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[secStart(b, sec)+4*i:], uint32(v)) }
	}
	return []crafted{
		{"blob offset past the pool", resealed(data, func(b []byte) {
			binary.LittleEndian.PutUint64(b[secStart(b, arena.SecRuleBlobOff)+8:], 1<<40)
		})},
		{"alternate rule index past the table", resealed(data, put32(arena.SecAltRules, 0, 1<<30))},
		{"trie rule index negative", resealed(data, put32(arena.SecTrieRules, 0, -1))},
		{"trie child block past the nodes", resealed(data, put32(arena.SecTrieChildHi, 0, 1<<30))},
		{"trie child block loops back to the root block", resealed(data, put32(arena.SecTrieChildLo, 0, 0))},
		{"alternates rule block reversed", resealed(data, put32(arena.SecAltRuleLo, 0, 1<<30))},
		{"head item zero", resealed(data, put32(arena.SecRuleHeadItem, 0, 0))},
		{"head promo past the catalog", resealed(data, put32(arena.SecRuleHeadPromo, 0, 1<<30))},
	}
}

// TestVerifyRejectsCraftedInteriors pins that a consistent checksum is
// not enough: Verify's interior scans reject every crafted image, and
// so does LoadBytes, the gate in front of the registry.
func TestVerifyRejectsCraftedInteriors(t *testing.T) {
	data, _ := sealedGrocery(t)
	for _, c := range craftedImages(data) {
		if m, err := arena.OpenBytes(c.img); err == nil {
			if err := m.Verify(); err == nil {
				t.Errorf("%s: Verify accepted the image", c.name)
			}
		}
		if _, _, err := modelio.LoadBytes(c.img); err == nil {
			t.Errorf("%s: LoadBytes accepted the image", c.name)
		}
	}
}

// FuzzSealedImage fuzzes the sealed-image trust boundary. Every input
// has its checksum recomputed, so mutations reach the structural checks
// instead of dying at the digest. Either OpenBytes or Verify rejects
// the image, or every read the serving path makes — each row's blob,
// string and ID, and top-5 over fixed probe baskets — returns without
// panicking.
func FuzzSealedImage(f *testing.F) {
	data, _ := sealedGrocery(f)
	f.Add(data)
	for _, c := range craftedImages(data) {
		f.Add(c.img)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		img := append([]byte(nil), in...)
		reseal(img)
		m, err := arena.OpenBytes(img)
		if err != nil {
			return
		}
		if err := m.Verify(); err != nil {
			return
		}
		rt := m.Rules()
		for i := int32(0); int(i) < rt.N(); i++ {
			_, _, _ = rt.Blob(i), rt.String(i), rt.ID(i)
			_ = rt.ExplainJoined(i)
		}
		rec, err := core.FromSealed(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, bk := range probeBaskets(m.Meta().NumPromos) {
			rec.RecommendTopK(bk, 5)
		}
	})
}

// probeBaskets returns fixed baskets over promos 1..promos — the range
// a basket decoded against the image's catalog can hold — from empty
// up to wider than the k-way expansion merge handles.
func probeBaskets(promos int) []model.Basket {
	out := []model.Basket{nil}
	if promos == 0 {
		return out
	}
	for w := 1; w <= 20; w++ {
		bk := make(model.Basket, w)
		for j := range bk {
			bk[j].Promo = model.PromoID(1 + (7*j+3*w)%promos)
		}
		out = append(out, bk)
	}
	return out
}

func TestHeaderHashErrors(t *testing.T) {
	data, _ := sealedGrocery(t)
	if _, err := arena.HeaderHash(data[:10]); err == nil {
		t.Error("short prefix produced a header hash")
	}
	if _, err := arena.HeaderHash([]byte("not a sealed model prefix, но длинный enough padding......")); err == nil {
		t.Error("bad magic produced a header hash")
	}
}

// TestOpenBytesMisaligned forces the aligned-copy path: a view into a
// deliberately misaligned buffer must still open and verify.
func TestOpenBytesMisaligned(t *testing.T) {
	data, _ := sealedGrocery(t)
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	m, err := arena.OpenBytes(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestNoMmapFallback pins the pure-Go path (exercised under -race in
// CI): same meta, same verification, Mapped reports false.
func TestNoMmapFallback(t *testing.T) {
	data, _ := sealedGrocery(t)
	path := filepath.Join(t.TempDir(), "model.pma")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	heap, err := arena.OpenFile(path, arena.Options{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Arena().Close()
	if heap.Arena().Mapped() {
		t.Error("NoMmap open still reports a mapping")
	}
	if err := heap.Verify(); err != nil {
		t.Fatal(err)
	}
	def, err := arena.OpenFile(path, arena.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer def.Arena().Close()
	if err := def.Verify(); err != nil {
		t.Fatal(err)
	}
	if heap.Meta() != def.Meta() {
		t.Errorf("fallback meta %+v != default-open meta %+v", heap.Meta(), def.Meta())
	}
	if !bytes.Equal(heap.Arena().Bytes(), def.Arena().Bytes()) {
		t.Error("fallback bytes differ from default-open bytes")
	}
	t.Logf("default open mapped: %v", def.Arena().Mapped())
}

// TestCloseIdempotent double-closes both arena kinds.
func TestCloseIdempotent(t *testing.T) {
	data, _ := sealedGrocery(t)
	path := filepath.Join(t.TempDir(), "model.pma")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []arena.Options{{}, {NoMmap: true}} {
		m, err := arena.OpenFile(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Arena().Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.Arena().Close(); err != nil {
			t.Errorf("second Close (mapped=%v) errored: %v", opts.NoMmap, err)
		}
	}
}
