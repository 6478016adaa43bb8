// The Structural (lazy) Index — the Partial Index idea lifted from
// single-node lookups to structural XPath axes. Each memoized element
// carries an XISS/R-style pre/post-order interval:
//
//   pre   = global token index of the element's begin token
//   post  = global token index of its matching end token
//   level = nesting depth of the begin token (top level = 0)
//
// so "d is a descendant of a" is the pure arithmetic
// `d.pre > a.pre && d.post < a.post`, and "c is a child of p" adds
// `c.level == p.level + 1` (same-level intervals are disjoint, so the
// containing interval one level up IS the parent). Each entry also
// records its parent's pre, so a child step joins on it and "the n-th
// child per parent" ([n]) needs no parent lookup. The range id and
// byte offset of the begin token ride along so the auditor can pin a
// memo back to the bytes it describes, and so a query can Seek to it.
// So does a value key: the node's value when it is short, a hash of it
// when long, or "mixed" (see StructuralEntry), so a text() step or an
// '=' predicate on a warm tag reads no token for most elements and
// every short value.
//
// Attributes are nodes of the token model too — a begin/end token pair
// with its own node id, one level below its element — so they memoize
// the same way, keyed `@name` (AttributeKey): `@` cannot start an XML
// name, so the key never clashes with an element tag, and "a is an
// attribute of e" is the child arithmetic above.
//
// Laziness (the paper's thesis, applied to axes): nothing is indexed
// up front. The first `//a//b` query streams the store exactly as the
// cold evaluator always has, and the scan's by-product — every `a` and
// `b` interval — is published here, keyed by tag. The next query over
// warm tags merge-joins posting lists instead of rescanning the
// document, touching only the postings that can match (see the joins
// below); a path the join cannot answer whole is a plain scan (see
// query/xpath_stream.h). A tag is warm iff it has a posting list
// (possibly empty: "no such element" is itself a cached fact);
// everything else is cold.
//
// The path summary: beside each list, the index keeps the list
// partitioned by root-to-node label path (/site/people/person/name), a
// DataGuide over the memoized postings. Every warming scan sees every
// token, so the warmer tags each entry with its label path, interned in
// one trie the index owns (LabelPath). A predicate-free path then reads
// its answer from the partitions whose label paths it matches — one
// partition is the answer, all of them the whole list, several a
// run-copying merge (StructuralMergeRuns) — with no join
// (query/xpath_stream.h). A tag on one label path keeps no selection:
// its list is its partition.
//
// Invalidation is lazy too — O(1) discard, repair deferred to the next
// query's scan. pre/post numbers are positions in the *current* token
// stream, so any mutation that inserts or removes tokens renumbers
// everything after the edit point; intervals recorded under different
// numberings must never be compared. Hence InvalidateAll() at the
// store's insert/delete choke points. Range restructurings that keep
// the token stream intact (splits, merges) only stale the (range,
// offset) coordinates, so they drop just the tag lists with entries in
// the touched range (InvalidateRange — the same seams the Partial
// Index hooks). A mutation-stable numbering (ORDPATH/Dewey, see
// src/ids/) is the known upgrade path if re-warm churn ever shows up
// in profiles; the paper's bet — and ours — is that read-mostly phases
// dominate, so cheap discard + lazy re-warm wins.
//
// Thread safety: internally synchronized with one annotated
// laxml::SharedMutex — readers (queries, metrics scrapes, the auditor)
// take it shared, publish/invalidate take it exclusive. Posting lists
// are immutable once published and handed out as
// shared_ptr<const vector>, so a reader's join keeps working on the
// list it fetched, and its selections keep pointing into it, even if a
// concurrent warmer republishes the tag. A list shares ownership of its
// publish, partitions included, and trie nodes are interned under the
// exclusive lock, immutable after, and never freed or renumbered while
// the index lives: a reader holding a list may follow its partitions'
// label paths with no lock. A warmer builds its label paths privately
// during its scan and interns them once, at Publish.
// This is what lets SharedStore run warming queries under its shared
// store latch, exactly as it does for Partial Index memoization.

#ifndef LAXML_INDEX_STRUCTURAL_INDEX_H_
#define LAXML_INDEX_STRUCTURAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/relaxed_counter.h"
#include "common/thread_annotations.h"
#include "index/range_index.h"
#include "xml/name_dictionary.h"
#include "xml/token.h"

namespace laxml {

class TokenCursor;

/// Counters for benches, metrics and tests. RelaxedCounters: bumped
/// from concurrent reader threads warming under the shared store latch.
struct StructuralIndexStats {
  /// Queries the gate accepts whose tags were all warm: structural
  /// joins.
  RelaxedCounter hits;
  /// Queries the gate accepts that named a cold tag: warming scans.
  RelaxedCounter misses;
  RelaxedCounter invalidations;  ///< Entries dropped by mutations.
};

/// parent_pre of a top-level entry: its parent is the virtual root.
inline constexpr uint64_t kNoParent = UINT64_MAX;

/// The value key of a mixed element (see StructuralEntry).
inline constexpr uint64_t kMixedValueKey = uint64_t{0xFE} << 56;

/// One memoized element or attribute: its pre/post-order interval, its
/// parent's pre, the physical location of its begin token (for the
/// auditor's cross-check and for Seek), and a value key. The key is a
/// by-product of the warming scan that lets the join answer `text()`
/// steps and '=' predicates without reading a token. By its top byte:
///
///   0..7  the value itself, inline (top byte = its length): an
///         attribute's value, or the string value of a *simple*
///         element — one whose content is its attributes, then
///         nothing (empty) or one text token numbered right after them
///         (a text leaf);
///   0xFF  a 56-bit hash of a longer such value;
///   0xFE  kMixedValueKey: any other element (child elements,
///         comments, PIs, a text before an attribute, or a text whose
///         id an update numbered apart from its element's).
///
/// A simple element's k attributes take 2k tokens, so post - pre is
/// odd when it is empty and even for a text leaf, whose text node is
/// at ordinal post - 1 with id `id + k + 1`.
struct StructuralEntry {
  NodeId id = kInvalidNodeId;
  uint64_t pre = 0;   ///< Global token index of the begin token.
  uint64_t post = 0;  ///< Global token index of the matching end token.
  uint64_t parent_pre = kNoParent;  ///< pre of the enclosing element.
  RangeId range = kInvalidRangeId;  ///< Range holding the begin token.
  uint64_t value_key = 0;  ///< See above.
  uint32_t level = 0;   ///< Depth of the begin token (top level = 0).
  uint32_t offset = 0;  ///< Byte offset of the begin token in `range`.

  /// An element whose value key is no value (see above).
  bool mixed() const { return value_key == kMixedValueKey; }
  /// A simple element holding one text token (see above).
  bool text_leaf() const { return !mixed() && (post - pre) % 2 == 0; }
  /// A text leaf's text node: its ordinal and id.
  uint64_t text_ordinal() const { return post - 1; }
  NodeId text_id() const { return id + (post - pre - 2) / 2 + 1; }
};
static_assert(sizeof(StructuralEntry) == 56,
              "postings stay 56 B: the value key fills the padding");

/// The value key of `value` (see StructuralEntry): exact up to 7 bytes,
/// a hash beyond.
uint64_t StructuralValueKey(std::string_view value);

/// True when `key` holds its value whole, so equal keys mean equal
/// values; a hashed key needs the value read to confirm.
inline bool ExactValueKey(uint64_t key) { return (key >> 56) <= 7; }

/// The posting-list key of attribute `name`.
inline std::string AttributeKey(std::string_view name) {
  std::string key = "@";
  key += name;
  return key;
}

/// Entries selected from immutable posting lists, in document order: a
/// join's result or a path partition. It borrows the lists, so whoever
/// holds them keeps it valid (XPathAccessPlan::lists does for a query).
using StructuralSelection = std::vector<const StructuralEntry*>;

/// One node of the path summary's trie: a root-to-node label path, the
/// kinds and names of a node and its ancestors. Node 0 is the virtual
/// root (no label, depth 0); every other node adds one label to its
/// parent's path. Immutable once interned and never freed while the
/// index lives, so a partition's pointer to it stays valid.
struct LabelPath {
  const LabelPath* parent = nullptr;  ///< Null for the virtual root.
  bool attribute = false;             ///< The last label is '@name'.
  std::string name;                   ///< The last label's name.
  uint32_t id = 0;                    ///< Index in the trie.
  uint32_t depth = 0;                 ///< Labels from the top.

  /// "/site/people/person/name", "/site/item/@id"; "" for the root.
  std::string ToString() const;
};

/// A label path a warmer met, as one trie step: `parent` indexes an
/// earlier step of the same list (step 0 is the virtual root).
struct LabelStep {
  uint32_t parent = 0;
  bool attribute = false;
  std::string name;
};

/// One label path's share of a tag's posting list.
struct PathPartition {
  const LabelPath* path = nullptr;
  /// The list's entries on `path`, in pre order. Empty when this is the
  /// tag's only partition: the whole list is then the partition.
  StructuralSelection entries;
};

/// Lazily-populated tag -> sorted interval list map. A tag is an element
/// name or an AttributeKey.
///
/// Beside each list, the path summary: the list partitioned by label
/// path (a DataGuide over the memoized postings, Goldman & Widom 1997).
/// A warmer tags every entry with its label path's id in one trie owned
/// by the index, so a predicate-free path is answered by the partitions
/// whose label paths it matches (query/xpath_stream.h), with no join.
/// Trie nodes are only ever added, never renumbered or freed; a list
/// published with no path ids has no partitions, and the joins answer
/// for it.
class StructuralIndex {
 public:
  /// A tag's posting list, sorted by pre (= document order). Immutable
  /// once published; safe to keep using after the lock drops.
  using EntryList = std::shared_ptr<const std::vector<StructuralEntry>>;

  /// A list with its partitions, from one publish. `partitions` lives
  /// as long as `list` is held: the list shares ownership of both.
  struct TagPostings {
    EntryList list;
    const std::vector<PathPartition>* partitions = nullptr;
  };

  StructuralIndex();
  StructuralIndex(const StructuralIndex&) = delete;
  StructuralIndex& operator=(const StructuralIndex&) = delete;

  /// The posting list for `tag`, or nullptr when the tag is cold. An
  /// empty (non-null) list means "warm, and no such element exists".
  EntryList LookupTag(const std::string& tag) const LAXML_EXCLUDES(mu_);

  /// `tag`'s list and partitions, or a null list when the tag is cold.
  TagPostings LookupPostings(const std::string& tag) const
      LAXML_EXCLUDES(mu_);

  /// Installs `entries` (sorted by pre) as `tag`'s posting list,
  /// replacing any previous list. `paths`, when not empty, holds each
  /// entry's label-path id (from InternLabelPaths): the list is then
  /// partitioned by it, each partition in pre order.
  void Publish(const std::string& tag, std::vector<StructuralEntry> entries,
               std::vector<uint32_t> paths = {}) LAXML_EXCLUDES(mu_);

  /// Interns a warmer's label paths in the trie: the id of each step.
  std::vector<uint32_t> InternLabelPaths(const std::vector<LabelStep>& steps)
      LAXML_EXCLUDES(mu_);

  /// Drops everything. Called whenever the store's token stream gains
  /// or loses tokens: every pre/post number after the edit point is
  /// renumbered, and intervals from different numberings must never be
  /// compared.
  void InvalidateAll() LAXML_EXCLUDES(mu_);

  /// Drops every tag list with an entry in `range` (split/merge moved
  /// its begin-token coordinates; the interval numbering is intact but
  /// the physical half of those entries is stale).
  void InvalidateRange(RangeId range) LAXML_EXCLUDES(mu_);

  /// Query-plan accounting (one hit/miss per query the gate accepts,
  /// not per tag probe).
  void RecordHit() const { ++stats_.hits; }
  void RecordMiss() const { ++stats_.misses; }

  /// Total memoized entries across all warm tags.
  size_t memoized_nodes() const LAXML_EXCLUDES(mu_);
  /// Number of warm tags (empty lists included).
  size_t warmed_tags() const LAXML_EXCLUDES(mu_);
  const StructuralIndexStats& stats() const { return stats_; }
  void ResetStats();

  /// Const iteration over every memoized entry (integrity auditor).
  /// The lock is held shared while visiting; `fn` must not reenter the
  /// index.
  template <typename Fn>
  void ForEachEntry(Fn fn) const LAXML_EXCLUDES(mu_) {
    ReaderMutexLock lk(mu_);
    for (const auto& [tag, list] : tags_) {
      for (const StructuralEntry& e : list.postings->entries) fn(tag, e);
    }
  }

  /// Const iteration over every tag's list and partitions (the
  /// auditor's summary check), under the shared lock like ForEachEntry.
  template <typename Fn>
  void ForEachTag(Fn fn) const LAXML_EXCLUDES(mu_) {
    ReaderMutexLock lk(mu_);
    for (const auto& [tag, list] : tags_) {
      fn(tag, list.postings->entries, list.postings->partitions);
    }
  }

 private:
  /// One publish: a list and its partitions, immutable once built.
  struct Postings {
    std::vector<StructuralEntry> entries;
    std::vector<PathPartition> partitions;
  };

  struct TagList {
    std::shared_ptr<const Postings> postings;
    /// Ranges holding the begin tokens of the entries (reverse map for
    /// InvalidateRange).
    std::unordered_set<RangeId> ranges;
  };

  mutable SharedMutex mu_;
  std::unordered_map<std::string, TagList> tags_ LAXML_GUARDED_BY(mu_);
  /// The path trie, by id (0: the virtual root), and its child map,
  /// keyed by the parent id's bytes, '/' or '@', and the name.
  std::vector<std::unique_ptr<LabelPath>> labels_ LAXML_GUARDED_BY(mu_);
  std::unordered_map<std::string, uint32_t> label_ids_ LAXML_GUARDED_BY(mu_);
  size_t memoized_ LAXML_GUARDED_BY(mu_) = 0;
  mutable StructuralIndexStats stats_;
};

/// Builds StructuralEntry tuples as a by-product of a document-order
/// token scan from the store's first token. Feed every token (ends
/// included — they close intervals); Publish() installs the collected
/// lists. With `track_all`, every element tag and attribute key is
/// collected (Store::WarmStructuralIndex); otherwise only the
/// tags in `wanted` are, and each wanted tag is published even when no
/// node matched (an empty list = warm negative).
///
/// The warmer reads the cursor's header fields only — type, name
/// symbol, depth, ordinal, and the value bytes in place — and matches
/// tags by dictionary symbol (`dict` may be null: every name is then
/// inline). Elements and attributes share the dictionary, so each kind
/// has its own symbol map. A name string is decoded only for
/// inline-named tokens, and once per newly seen symbol, so a warming
/// scan stays header-only. Value keys come from the same tokens: an
/// attribute's at its begin token, an element's from its direct
/// children as they stream past. Each collected entry gets its label
/// path, found among its parent path's children by symbol, else by name
/// (from the dictionary, or decoded for inline names), so a name stored
/// both inline and as a symbol lands on one label path. An untracked
/// scope's path is resolved only when a tracked entry opens below it.
class StructuralWarmer {
 public:
  StructuralWarmer(const NameDictionary* dict,
                   std::vector<std::string> wanted, bool track_all);

  /// Feeds the cursor's current token.
  void OnToken(const TokenCursor& cursor);

  /// True when the fed stream was well-nested (every opened scope
  /// closed). Publish is a no-op otherwise — a broken stream's
  /// intervals are meaningless, and the corruption is reported by the
  /// layers that own it.
  bool complete() const { return !broken_ && open_.empty(); }

  void Publish(StructuralIndex* index);

  /// One tag's collected list, sorted by pre, and each entry's label
  /// path (an index into label_steps()).
  struct TagEntries {
    std::string tag;
    std::vector<StructuralEntry> entries;
    std::vector<uint32_t> paths;
  };

  /// Collected lists (auditor cross-check; valid when complete()).
  const std::vector<TagEntries>& collected() const { return collected_; }
  /// The label paths the warmer resolved, as trie steps (step 0: the
  /// virtual root): the collected entries' and their ancestors'.
  const std::vector<LabelStep>& label_steps() const { return labels_; }

 private:
  static constexpr uint32_t kUntracked = UINT32_MAX;

  /// Index 0: element tags; 1: attribute keys.
  enum Kind : uint32_t { kElement = 0, kAttribute = 1 };

  /// Index into collected_ of the current begin token's tag, or
  /// kUntracked.
  uint32_t TagOf(const TokenCursor& cursor, Kind kind);
  uint32_t AddTag(Kind kind, const std::string& name);

  /// What a tracked element's direct children have made of it so far
  /// (see StructuralEntry); attributes and untracked scopes stay kOther.
  enum class Shape : uint8_t { kEmpty, kTextLeaf, kOther };

  /// The flag of an OpenScope::path not resolved yet.
  static constexpr uint32_t kUnresolved = uint32_t{1} << 31;

  struct OpenScope {
    uint32_t tag;    ///< Index into collected_, or kUntracked.
    uint32_t entry;  ///< Index into collected_[tag].entries.
    uint64_t pre;    ///< Ordinal of the scope's begin token.
    NodeId text_id;  ///< The id a text child must have to be a leaf's.
    /// The scope's label path (index into labels_), or kUnresolved with
    /// the name's symbol shifted left once and the attribute flag in
    /// bit 0: an untracked scope with a symbol-coded name resolves its
    /// path only when a tracked entry opens below it, so a scan pays
    /// no lookup for the subtrees holding no tracked tag.
    uint32_t path;
    Shape shape;
  };

  /// The child of label path `parent` named `name`, whose symbol is
  /// `symbol` (kNoNameSymbol: inline): found among `parent`'s children
  /// by symbol, else by name, else added.
  uint32_t ChildPath(uint32_t parent, bool attribute, uint32_t symbol,
                     const std::string& name);
  /// The label path of the innermost open scope (0: the virtual root),
  /// resolving the unresolved scopes on the way.
  uint32_t ParentPath();

  /// The current token is a direct child of `scope`.
  void OnChild(const TokenCursor& cursor, TokenType type, OpenScope* scope);

  /// Tag index by dictionary symbol (kUntracked: not tracked yet) and
  /// by bare name, for inline-coded names.
  struct Names {
    std::vector<uint32_t> by_symbol;
    std::unordered_map<std::string, uint32_t> by_name;
  };

  const NameDictionary* dict_;
  bool track_all_;
  std::vector<TagEntries> collected_;
  Names names_[2];  ///< By Kind.
  std::vector<OpenScope> open_;
  bool broken_ = false;
  /// A child label path, under the dictionary symbol of its name
  /// (kNoNameSymbol: added for an inline name). A child named both
  /// ways appears once per way.
  struct LabelChild {
    uint32_t symbol;
    bool attribute;
    uint32_t path;
  };

  /// The stream's label paths, and by index each one's children.
  std::vector<LabelStep> labels_;
  std::vector<std::vector<LabelChild>> label_children_;
};

/// The warm-path joins. Each reads posting lists, or selections from
/// them, sorted by pre, in place, and returns the entries it keeps as
/// pointers into those lists: document order, duplicate-free by
/// construction, and never a copied entry. Each adds to `*read`, when
/// given, the postings it visited: the candidates its walk reads and
/// the frontier entries it passes (entries a gallop skips are not
/// visited), the request counter postings_read.

/// What a join reads: a whole posting list or a selection from one,
/// either sorted by pre. Converts implicitly from both and copies
/// neither. A join's result points into the lists, so a temporary list
/// does not convert; a temporary selection does, since a result never
/// points into a selection.
class StructuralSpan {
 public:
  StructuralSpan(const std::vector<StructuralEntry>& list)  // NOLINT
      : list_(list.data()), size_(list.size()) {}
  StructuralSpan(std::vector<StructuralEntry>&&) = delete;
  StructuralSpan(const StructuralSelection& selection)  // NOLINT
      : selection_(selection.data()), size_(selection.size()) {}

  size_t size() const { return size_; }
  /// A list's entries, or nullptr for a selection. Either may be null
  /// when the span is empty.
  const StructuralEntry* list() const { return list_; }
  /// A selection's pointers, or nullptr for a list.
  const StructuralEntry* const* selection() const { return selection_; }

 private:
  const StructuralEntry* list_ = nullptr;
  const StructuralEntry* const* selection_ = nullptr;
  size_t size_ = 0;
};

/// Entries of `candidates` at the top level (step 0 of a child-axis
/// path: the virtual root's children are exactly the level-0 elements).
StructuralSelection StructuralTopLevel(
    const std::vector<StructuralEntry>& candidates, uint64_t* read = nullptr);
StructuralSelection StructuralTopLevel(std::vector<StructuralEntry>&&,
                                       uint64_t* read = nullptr) = delete;

/// `skip` counts the '*' child steps between the frontier's step and
/// the candidates' (`/a/*/*/b`: 2). Every scope between two element
/// levels is an element — attribute scopes hold nothing and document
/// tokens never reach a store — so each level skipped matches '*', and
/// the wildcards reduce to level arithmetic.
///
/// Two merges do the work, and each touches only the postings that can
/// match. The stack merge (the stack-tree join) walks both lists in pre
/// order with a stack of the frontier intervals holding the current
/// candidate; it answers descendant steps and '*'-skipping steps, whose
/// ancestor may sit more than one level up. The parent merge answers a
/// child step with no '*' level: every posting records its parent's
/// pre, so a candidate joins the frontier entry with that pre: found
/// by one forward pointer, or by a binary search back when frontier
/// entries nested in the parent began before the candidate. The stack
/// merge could answer these steps too and would visit the same
/// candidates; the parent merge keeps no stack, and that upkeep per
/// frontier entry is measurable end to end (EXPERIMENTS.md, Ablation
/// O). Both skip: while no frontier interval begun so far holds the
/// current candidate, a gallop over the candidates seeks past the next
/// frontier entry's pre; and both stop once the frontier is used up
/// with no interval open. So a join costs O(|frontier| + candidates
/// inside a frontier interval + log per skipped run). It allocates its
/// result once, reserved from the most it can hold (the candidate
/// count; for a semi-join, the frontier's): 8 bytes per candidate even
/// when few match, an eighth of the list's own size, freed with the
/// result.

/// Entries of `candidates` strictly contained in some frontier interval
/// at least `skip + 1` levels up. The stack merge.
StructuralSelection StructuralDescendantJoin(const StructuralSpan& frontier,
                                             const StructuralSpan& candidates,
                                             uint32_t skip = 0,
                                             uint64_t* read = nullptr);

/// Entries of `candidates` whose ancestor `skip + 1` levels up (with no
/// skip: the parent) is in the frontier. With no skip, the parent
/// merge. Otherwise the stack merge: the stack holds the frontier
/// intervals containing the current candidate, innermost on top, so
/// the candidate qualifies iff one of them sits exactly at the required
/// level — not necessarily the innermost one, which may be a nearer
/// frontier ancestor.
StructuralSelection StructuralChildJoin(const StructuralSpan& frontier,
                                        const StructuralSpan& candidates,
                                        uint32_t skip = 0,
                                        uint64_t* read = nullptr);

/// The semi-join behind twig predicates: entries of `frontier` holding
/// at least one candidate `skip + 1` levels down (`child`) or at least
/// that far down (descendant). The same merges as the joins above, with
/// an existence output: each candidate marks the frontier intervals it
/// qualifies for (a child with no skip: its parent), and the marked
/// ones are returned in frontier order.
StructuralSelection StructuralSemiJoin(const StructuralSpan& frontier,
                                       const StructuralSpan& candidates,
                                       bool child, uint32_t skip = 0,
                                       uint64_t* read = nullptr);

/// [n] on a child step (1-based): entries of `candidates` (sorted by
/// pre) that are the n-th among the candidates sharing their parent,
/// the step's context node. One pass: a candidate's parent began
/// before it, and once a candidate of an earlier-starting parent
/// follows, every later-starting parent has ended, so a stack of
/// (parent, count) replaces a per-parent map.
StructuralSelection StructuralNthPerParent(const StructuralSpan& candidates,
                                           uint64_t n,
                                           uint64_t* read = nullptr);

/// [n] on a descendant step: entries of `candidates` that are the n-th
/// candidate, in document order, strictly inside some `frontier` entry
/// (each frontier entry is a context of its own, and nested ones count
/// the same candidate separately). The stack merge, counting per
/// frontier entry.
StructuralSelection StructuralNthDescendant(const StructuralSpan& frontier,
                                            const StructuralSpan& candidates,
                                            uint64_t n,
                                            uint64_t* read = nullptr);

/// The union of `parts`, selections from one list with no entry in
/// two, in pre order: the path summary's merge of a tag's partitions.
/// A run-copying merge: it copies from the part with the lowest head
/// while that part stays below the next-lowest head, finding the run's
/// end by a gallop, so a merge of k parts costs O(k) per run plus
/// O(log run) per run, and one copy per entry.
StructuralSelection StructuralMergeRuns(
    const std::vector<const StructuralSelection*>& parts);

}  // namespace laxml

#endif  // LAXML_INDEX_STRUCTURAL_INDEX_H_
