// Package arena implements the sealed, zero-copy on-disk model format
// (modelio format v3): one contiguous little-endian file whose sections
// — catalog tables, pooled expansion lists, the flattened matcher tries
// exactly as rules.Matcher seals them, the rank columns and stable IDs
// of every servable rule, and its pre-marshaled recommendation blob —
// are fixed-layout segments addressed by a header of offsets, with a
// whole-file sha256. The rule table stores only what serving reads;
// the rule string and explanation lines are derived from the blob.
//
// Opening a sealed file is mmap (or a pure-Go ReadFile fallback) plus
// O(#sections) pointer fixup into index-based views: no per-rule work,
// no deserialization, and the page cache is shared across processes.
// All unsafe aliasing in the repository is confined to this package
// (enforced by the profitlint `arenaonly` rule).
//
// # Layout
//
//	offset 0   magic "PMARENA1" (8 bytes)
//	offset 8   format version (u32) — currently 2
//	offset 12  reserved (u32)
//	offset 16  sha256 over file[48:end] (32 bytes)
//	offset 48  file size (u64) — must equal the actual length
//	offset 56  section count (u32) — NumSections exactly
//	offset 60  reserved (u32)
//	offset 64  section table: NumSections × {offset u64, length u64}
//	...        sections, each 8-byte aligned, in table order
//
// The checksum covers everything after itself (size, table, sections),
// so Verify is one linear pass and the stored digest doubles as the
// model's content hash for cluster distribution and watcher identity.
//
// # Invariants
//
//   - All multi-byte values are little-endian; Open refuses to run on
//     big-endian hosts rather than silently mis-alias.
//   - Every section offset is 8-byte aligned and sections appear in
//     table order without overlap, so typed views (int32/int64/float64
//     slices) can alias the mapping directly.
//   - Open performs only O(#sections) structural validation — never
//     O(rules) or O(items). A truncated file or a damaged header fails
//     Open; payload bit-flips and the linear structural scans (every
//     interior offset and index the serving path follows) are Verify's
//     job, which stagers (registry, cluster sync, profitminer -seal)
//     run once per new content hash. Catalog materialization is
//     deferred to the first Catalog call and memoized.
//   - Views index into one global rule table; *rules.Rule pointers
//     never exist for a sealed model, which is what makes open time
//     independent of model size.
package arena

// magic identifies a sealed model file. It stays fixed across layout
// changes, so an image of an older layout is still recognised as
// sealed and rejected by its version field rather than misread as
// another format.
const magic = "PMARENA1"

// formatVersion is the sealed-format version this package reads and
// writes.
const formatVersion = 2

// checksumStart is the file offset the stored sha256 covers from.
const checksumStart = 48

// HeaderPrefixLen is the number of leading bytes that carry the magic,
// version, and content checksum — all a watcher needs to identify a
// sealed file without reading its body.
const HeaderPrefixLen = checksumStart

// Section indices. The table is fixed: a format-v2 file has exactly
// these sections in this order.
const (
	SecMeta = iota // fixed-size counts + build stats (metaSize bytes)

	// Catalog: enough to materialize a *model.Catalog at open.
	SecItemNameOff  // int32[items+1] offsets into SecItemNamePool
	SecItemNamePool // item names, concatenated
	SecItemTarget   // byte[items], 0/1 target flags
	SecPromoItem    // int32[promos], owning item ID per promo
	SecPromoEcon    // float64[3*promos]: price, cost, packing per promo

	// Per-promotion sale expansions (hierarchy.Expansions layout).
	SecExpOff  // int32[promos+2]
	SecExpPool // GenID[...]

	// Columnar rule table: final rules in MPF rank order, then the
	// per-item alternates (in matcher trie order) not already present.
	// Only what serving reads is stored: the four MPF rank keys, the
	// head, the stable ID and the response blob.
	SecRuleBodyLen   // int32[R] body length, the third rank key
	SecRuleHeadItem  // int32[R] head item ID
	SecRuleHeadPromo // int32[R] head promo ID
	SecRuleBodyCount // int32[R] support count N
	SecRuleHits      // int32[R]
	SecRuleOrder     // int32[R]
	SecRuleProfRe    // float64[R] Prof_re (Profit/BodyCount, sealed so ranking reads one column)
	SecRuleIDPool    // byte[RuleIDLen*R] stable IDs, fixed records
	SecRuleBlobOff   // int64[R+1] offsets into SecRuleBlobPool
	SecRuleBlobPool  // pre-marshaled WireRecommendation JSON blobs

	// Flattened matcher trie over the final rules (rules.Matcher's
	// sealed layout; rule lists hold global rule-table indices).
	SecTrieItem
	SecTrieChildLo
	SecTrieChildHi
	SecTrieRuleLo
	SecTrieRuleHi
	SecTrieRules
	SecTrieDefaults

	// Same seven sections for the per-item alternates matcher.
	SecAltItem
	SecAltChildLo
	SecAltChildHi
	SecAltRuleLo
	SecAltRuleHi
	SecAltRules
	SecAltDefaults

	NumSections
)

// headerSize is where the first section may start: fixed header plus
// the section table. 64 + 16*32 = 576, already 8-byte aligned.
const headerSize = 64 + 16*NumSections

// RuleIDLen is the fixed width of one stable rule ID ("r" + 16 hex
// digits, rules.StableID).
const RuleIDLen = 17

// metaSize is the encoded size of Meta.
const metaSize = 48

// metaFlagMOA marks a model whose space was compiled with the MOA
// extension.
const metaFlagMOA = 1 << 0

// Meta carries the fixed-size counts and build statistics of a sealed
// model.
type Meta struct {
	NumItems     int
	NumPromos    int
	NumRules     int // total servable rules (final ∪ alternates)
	NumFinal     int // leading rules of the table, in MPF rank order
	Generated    int
	NonDominated int
	TreeDepth    int
	MOA          bool

	ProjectedProfit float64

	TrieRootHi int32 // root child block of the final-rule trie
	AltRootHi  int32 // root child block of the alternates trie
}
