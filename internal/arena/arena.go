package arena

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
)

// Options controls how a sealed file is opened.
type Options struct {
	// NoMmap forces the pure-Go ReadFile path even when the build
	// supports mmap — tests exercise the fallback this way under -race
	// without a separate build.
	NoMmap bool
}

// Arena owns the raw bytes of one sealed model: either a read-only
// shared mapping or a heap buffer from the ReadFile fallback. Views
// handed out by the Model alias these bytes directly, and the Model
// keeps its Arena reachable, so views stay valid until the last
// reference to the Model is gone — at which point the finalizer
// unmaps. Close may be called explicitly (tests, CLIs); it is
// idempotent and must not race in-flight readers.
type Arena struct {
	data   []byte
	mapped bool
	closed atomic.Bool
}

// Bytes returns the whole sealed image, for shipping verbatim (cluster
// model distribution) or re-saving. Must not be modified.
func (a *Arena) Bytes() []byte { return a.data }

// Mapped reports whether the arena is an mmap (false: heap fallback).
func (a *Arena) Mapped() bool { return a.mapped }

// Close releases the mapping (a no-op for the heap fallback beyond
// letting the GC reclaim the buffer). Idempotent.
func (a *Arena) Close() error {
	if !a.closed.CompareAndSwap(false, true) {
		return nil
	}
	runtime.SetFinalizer(a, nil)
	if a.mapped {
		data := a.data
		a.data = nil
		return munmapBytes(data)
	}
	a.data = nil
	return nil
}

// OpenFile opens a sealed model file: mmap when the platform and build
// allow it, ReadFile otherwise. Open allocates O(1) in model size —
// structural validation is a bounds pass over the offset columns
// (O(items+promos) comparisons, never O(rules), no allocations) and
// the heap catalog materializes lazily on first Catalog() call. Open
// validates structure only; run Verify (or use a path that does, like
// registry staging) before trusting content from an untrusted source.
func OpenFile(path string, opts Options) (*Model, error) {
	if mmapAvailable && !opts.NoMmap {
		m, err := openMapped(path)
		if err == nil {
			return m, nil
		}
		var perr *parseError
		if asParseError(err, &perr) {
			return nil, err // structurally bad file: the fallback would fail the same way
		}
		// mmap itself failed (exotic filesystem, resource limits):
		// degrade to the portable path.
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return OpenBytes(data)
}

func openMapped(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(info.Size())
	if size < headerSize {
		return nil, &parseError{fmt.Sprintf("arena: file is %d bytes, smaller than the %d-byte header", size, headerSize)}
	}
	data, err := mmapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("arena: mmap %s: %w", path, err)
	}
	a := &Arena{data: data, mapped: true}
	// The mapping outlives the fd; reclaim the address space when the
	// last Model reference is collected.
	runtime.SetFinalizer(a, func(ar *Arena) { ar.Close() })
	m, err := parse(a)
	if err != nil {
		a.Close()
		return nil, err
	}
	return m, nil
}

// OpenBytes opens a sealed model held in memory (the cluster sync path
// receives images over HTTP). The buffer is aliased, not copied,
// unless its base address is misaligned.
func OpenBytes(data []byte) (*Model, error) {
	if !isAligned8(data) {
		data = alignedCopy(data)
	}
	return parse(&Arena{data: data})
}

// parseError marks structural-validation failures, as opposed to I/O
// errors: a file that fails parse under mmap will fail identically via
// ReadFile, so OpenFile does not retry those.
type parseError struct{ msg string }

func (e *parseError) Error() string { return e.msg }

func asParseError(err error, target **parseError) bool {
	for err != nil {
		if pe, ok := err.(*parseError); ok {
			*target = pe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func errf(format string, args ...any) error {
	return &parseError{"arena: " + fmt.Sprintf(format, args...)}
}

// SniffMagic reports whether data begins with a sealed-model header.
// A HeaderPrefixLen-byte prefix is enough.
func SniffMagic(data []byte) bool {
	return len(data) >= len(magic) && string(data[:len(magic)]) == magic
}

// HeaderHash extracts the stored content checksum (hex) from a sealed
// header prefix without touching the body — the watcher's cheap
// identity probe. data needs at least HeaderPrefixLen bytes.
func HeaderHash(data []byte) (string, error) {
	if !SniffMagic(data) {
		return "", errf("not a sealed model (bad magic)")
	}
	if len(data) < HeaderPrefixLen {
		return "", errf("header prefix truncated at %d bytes", len(data))
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return "", errf("unsupported sealed format version %d (want %d)", v, formatVersion)
	}
	return hex.EncodeToString(data[16:48]), nil
}

// section is one parsed table entry.
type section struct{ off, len int }

// parse validates the header and section table, decodes the meta
// block, checks every fixed-size section length against the counts,
// and aliases the typed views. It does no per-rule work.
func parse(a *Arena) (*Model, error) {
	if !hostLittleEndian() {
		return nil, errf("sealed models require a little-endian host")
	}
	data := a.data
	if len(data) < headerSize {
		return nil, errf("file is %d bytes, smaller than the %d-byte header", len(data), headerSize)
	}
	if !SniffMagic(data) {
		return nil, errf("bad magic (not a sealed model)")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return nil, errf("unsupported sealed format version %d (want %d)", v, formatVersion)
	}
	if size := binary.LittleEndian.Uint64(data[48:]); size != uint64(len(data)) {
		return nil, errf("header says %d bytes but file holds %d (truncated?)", size, len(data))
	}
	if n := binary.LittleEndian.Uint32(data[56:]); n != NumSections {
		return nil, errf("file has %d sections, format v%d defines %d", n, formatVersion, NumSections)
	}

	var secs [NumSections]section
	prevEnd := uint64(headerSize)
	for i := range secs {
		off := binary.LittleEndian.Uint64(data[64+16*i:])
		ln := binary.LittleEndian.Uint64(data[64+16*i+8:])
		if off%8 != 0 {
			return nil, errf("section %d offset %d is not 8-byte aligned", i, off)
		}
		if off < prevEnd || off > uint64(len(data)) || ln > uint64(len(data))-off {
			return nil, errf("section %d [%d,+%d) escapes the file or overlaps its predecessor", i, off, ln)
		}
		secs[i] = section{off: int(off), len: int(ln)}
		prevEnd = off + ln
	}
	sec := func(i int) []byte { return data[secs[i].off : secs[i].off+secs[i].len] }

	meta, err := decodeMeta(sec(SecMeta))
	if err != nil {
		return nil, err
	}
	items, promos, rcount := meta.NumItems, meta.NumPromos, meta.NumRules
	if meta.NumFinal < 0 || meta.NumFinal > rcount {
		return nil, errf("meta: %d final rules out of %d total", meta.NumFinal, rcount)
	}

	// Fixed-size sections must match the counts exactly; variable pools
	// are bounds-checked by their O(1) first/last offsets below (full
	// interior validation is Verify's checksum).
	want := func(i, wantLen int, what string) error {
		if secs[i].len != wantLen {
			return errf("%s section holds %d bytes, want %d", what, secs[i].len, wantLen)
		}
		return nil
	}
	checks := []error{
		want(SecItemNameOff, 4*(items+1), "item-name offsets"),
		want(SecItemTarget, items, "item targets"),
		want(SecPromoItem, 4*promos, "promo items"),
		want(SecPromoEcon, 8*3*promos, "promo economics"),
		want(SecExpOff, 4*(promos+2), "expansion offsets"),
		want(SecRuleBodyLen, 4*rcount, "rule body lengths"),
		want(SecRuleHeadItem, 4*rcount, "rule head items"),
		want(SecRuleHeadPromo, 4*rcount, "rule head promos"),
		want(SecRuleBodyCount, 4*rcount, "rule body counts"),
		want(SecRuleHits, 4*rcount, "rule hits"),
		want(SecRuleOrder, 4*rcount, "rule orders"),
		want(SecRuleProfRe, 8*rcount, "rule prof_re"),
		want(SecRuleIDPool, RuleIDLen*rcount, "rule IDs"),
		want(SecRuleBlobOff, 8*(rcount+1), "rule blob offsets"),
	}
	for _, err := range checks {
		if err != nil {
			return nil, err
		}
	}
	trie, err := aliasTrie(sec, SecTrieItem, meta.TrieRootHi, rcount, "matcher trie")
	if err != nil {
		return nil, err
	}
	alt, err := aliasTrie(sec, SecAltItem, meta.AltRootHi, rcount, "alternates trie")
	if err != nil {
		return nil, err
	}

	m := &Model{
		a:    a,
		meta: meta,
		sec:  sec,
		exp:  expansions{off: alias[int32](sec(SecExpOff)), pool: alias[genID](sec(SecExpPool))},
		rt: RuleTable{
			HeadItem:  alias[int32](sec(SecRuleHeadItem)),
			HeadPromo: alias[int32](sec(SecRuleHeadPromo)),
			BodyCount: alias[int32](sec(SecRuleBodyCount)),
			Hits:      alias[int32](sec(SecRuleHits)),
			Order:     alias[int32](sec(SecRuleOrder)),
			ProfRe:    alias[float64](sec(SecRuleProfRe)),
			bodyLen:   alias[int32](sec(SecRuleBodyLen)),
			idPool:    sec(SecRuleIDPool),
			blobOff:   alias[int64](sec(SecRuleBlobOff)),
			blobPool:  sec(SecRuleBlobPool),
		},
		trie: trie,
		alt:  alt,
	}

	// O(1) pool bounds: first and last offsets must bracket the pool
	// exactly, so a truncated tail cannot produce an out-of-range slice
	// on the very first lookup.
	if rcount > 0 {
		if err := checkPoolBounds64(m.rt.blobOff, secs[SecRuleBlobPool].len, "rule blob"); err != nil {
			return nil, err
		}
	}
	// The O(1) budget of parse ends here: the interior scans (expansion
	// and blob offsets, head columns, tries, catalog) are linear in the
	// model, so they run in Verify — the once-per-staging O(file) gate —
	// not per open.
	return m, nil
}

// aliasTrie aliases one seven-section flattened trie, checking the five
// node columns agree on the node count and that rule indices fit the
// element width.
func aliasTrie(sec func(int) []byte, base int, rootHi int32, rcount int, what string) (Trie, error) {
	n := len(sec(base)) / 4
	for i := base; i < base+5; i++ {
		if len(sec(i)) != 4*n {
			return Trie{}, errf("%s node columns disagree on size", what)
		}
	}
	if int(rootHi) < 0 || int(rootHi) > n {
		return Trie{}, errf("%s root block [0,%d) exceeds %d nodes", what, rootHi, n)
	}
	t := Trie{
		Item:     alias[genID](sec(base)),
		ChildLo:  alias[int32](sec(base + 1)),
		ChildHi:  alias[int32](sec(base + 2)),
		RuleLo:   alias[int32](sec(base + 3)),
		RuleHi:   alias[int32](sec(base + 4)),
		Rules:    alias[int32](sec(base + 5)),
		Defaults: alias[int32](sec(base + 6)),
		RootHi:   rootHi,
	}
	for _, d := range t.Defaults {
		if int(d) < 0 || int(d) >= rcount {
			return Trie{}, errf("%s default rule index %d outside the %d-rule table", what, d, rcount)
		}
	}
	return t, nil
}

func checkPoolBounds64(off []int64, poolLen int, what string) error {
	if off[0] != 0 || int(off[len(off)-1]) != poolLen {
		return errf("%s offsets [%d..%d] do not bracket their %d-byte pool", what, off[0], off[len(off)-1], poolLen)
	}
	return nil
}

// decodeMeta reads the fixed meta block.
func decodeMeta(b []byte) (Meta, error) {
	if len(b) != metaSize {
		return Meta{}, errf("meta section holds %d bytes, want %d", len(b), metaSize)
	}
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(b[off:])) }
	m := Meta{
		NumItems:     u32(0),
		NumPromos:    u32(4),
		NumRules:     u32(8),
		NumFinal:     u32(12),
		Generated:    u32(16),
		NonDominated: u32(20),
		TreeDepth:    u32(24),
	}
	flags := binary.LittleEndian.Uint32(b[28:])
	m.MOA = flags&metaFlagMOA != 0
	m.ProjectedProfit = lefloat(b[32:])
	m.TrieRootHi = int32(binary.LittleEndian.Uint32(b[40:]))
	m.AltRootHi = int32(binary.LittleEndian.Uint32(b[44:]))
	return m, nil
}

func encodeMeta(m Meta) []byte {
	b := make([]byte, metaSize)
	u32 := func(off, v int) { binary.LittleEndian.PutUint32(b[off:], uint32(v)) }
	u32(0, m.NumItems)
	u32(4, m.NumPromos)
	u32(8, m.NumRules)
	u32(12, m.NumFinal)
	u32(16, m.Generated)
	u32(20, m.NonDominated)
	u32(24, m.TreeDepth)
	flags := uint32(0)
	if m.MOA {
		flags |= metaFlagMOA
	}
	binary.LittleEndian.PutUint32(b[28:], flags)
	putLefloat(b[32:], m.ProjectedProfit)
	u32(40, int(m.TrieRootHi))
	u32(44, int(m.AltRootHi))
	return b
}

// Verify recomputes the whole-file checksum against the stored digest,
// then scans every interior offset and index the serving path follows:
// the integrity gate every staging path runs once per new content
// hash. O(file size), unlike Open.
func (m *Model) Verify() error {
	data := m.a.data
	sum := sha256.Sum256(data[checksumStart:])
	if !bytes.Equal(sum[:], data[16:48]) {
		return errf("content checksum mismatch: header %.8x, content %.8x (file corrupt?)", data[16:24], sum[:8])
	}
	// Linear structural scans live here, not in parse, to keep Open O(1)
	// in model size. For a file the sealer wrote the checksum already
	// implies them; they exist so a hand-crafted file with a consistent
	// checksum still cannot push invalid offsets past the trust gate.
	if err := m.exp.validate(len(m.sec(SecExpPool))); err != nil {
		return err
	}
	if err := m.rt.validate(m.meta); err != nil {
		return err
	}
	if err := m.trie.validate(m.meta.NumRules, "matcher trie"); err != nil {
		return err
	}
	if err := m.alt.validate(m.meta.NumRules, "alternates trie"); err != nil {
		return err
	}
	return validateCatalog(m.meta, m.sec)
}

// ContentHash returns the stored whole-file checksum (hex) — the
// sealed model's identity for the watcher, the cluster, and dedup.
func (m *Model) ContentHash() string {
	return hex.EncodeToString(m.a.data[16:48])
}
