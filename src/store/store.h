// The laxml Store: the paper's XML store (Table 1 interface) over the
// Range model.
//
//   * An XML instance is a flat token sequence (Section 3) stored as a
//     document-order chain of Ranges (Section 4).
//   * Node ids are insert-time integers; they are never stored with the
//     tokens and are regenerated by scanning from each Range's start id.
//   * Locating a node is lazy: coarse Range Index probe, then a
//     TokenCursor scan from the range's start — whose result is
//     memoized in the Partial Index so the next lookup of the same
//     logical position jumps directly (Section 5). The kFullIndex mode
//     maintains the eager baseline instead (Section 4.1).
//   * Every update is expressed against a target node id, exactly the
//     XUpdate-style interface of the paper's Table 1.
//
// Thread safety: none here (matching the engine core); use SharedStore
// for concurrent access.

#ifndef LAXML_STORE_STORE_H_
#define LAXML_STORE_STORE_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/full_index.h"
#include "index/partial_index.h"
#include "index/structural_index.h"
#include "store/range_manager.h"
#include "store/stats.h"
#include "store/store_options.h"
#include "xml/serializer.h"
#include "wal/log_format.h"
#include "xml/token_sequence.h"

namespace laxml {

class TokenCursor;
class Wal;

/// What a streaming bulk load did (see Store::BulkLoad).
struct BulkLoadStats {
  uint64_t xml_bytes = 0;      ///< XML text bytes consumed.
  uint64_t tokens = 0;         ///< Tokens stored.
  uint64_t nodes = 0;          ///< Node ids allocated.
  uint64_t ranges = 0;         ///< Ranges created.
  uint64_t payload_bytes = 0;  ///< Encoded token bytes written.
  uint32_t dict_symbols = 0;   ///< Dictionary size after the load.

  /// Effective storage cost per token.
  double bytes_per_token() const {
    return tokens > 0
               ? static_cast<double>(payload_bytes) /
                     static_cast<double>(tokens)
               : 0.0;
  }
};

/// The adaptive XML store.
class Store {
 public:
  /// Opens (or creates) a file-backed store at `path`.
  static Result<std::unique_ptr<Store>> Open(const std::string& path,
                                             const StoreOptions& options);

  /// Creates a fresh in-memory store.
  static Result<std::unique_ptr<Store>> OpenInMemory(
      const StoreOptions& options);

  ~Store();

  // -------------------------------------------------------------------
  // The paper's Table-1 interface.

  /// Inserts `data` as the preceding sibling(s) of node `id`. Returns
  /// the id of the first inserted node.
  Result<NodeId> InsertBefore(NodeId id, const TokenSequence& data);

  /// Inserts `data` as the following sibling(s) of node `id`.
  Result<NodeId> InsertAfter(NodeId id, const TokenSequence& data);

  /// Inserts `data` as the first child(ren) of node `id` (which must be
  /// an element or document node).
  Result<NodeId> InsertIntoFirst(NodeId id, const TokenSequence& data);

  /// Inserts `data` as the last child(ren) of node `id`.
  Result<NodeId> InsertIntoLast(NodeId id, const TokenSequence& data);

  /// Removes node `id` and its entire subtree.
  Status DeleteNode(NodeId id);

  /// Replaces node `id` (subtree included) with `data`.
  Result<NodeId> ReplaceNode(NodeId id, const TokenSequence& data);

  /// Replaces the content (children) of element/document node `id` with
  /// `data`, keeping the node itself. Returns the id of the first
  /// inserted node (kInvalidNodeId when `data` is empty).
  Result<NodeId> ReplaceContent(NodeId id, const TokenSequence& data);

  /// Reads the entire data source in document order.
  Result<TokenSequence> Read();

  /// Reads the subtree of node `id` (begin token through end token).
  Result<TokenSequence> Read(NodeId id);

  // -------------------------------------------------------------------
  // Beyond Table 1.

  /// Appends `data` at the end of the top level (the bootstrap insert:
  /// the paper's worked example starts by inserting sibling nodes into
  /// an empty data source). Returns the first inserted id.
  Result<NodeId> InsertTopLevel(const TokenSequence& data);

  /// Reads everything, also reporting the node id of every token
  /// (kInvalidNodeId for end tokens) — the regeneration procedure made
  /// visible, used by tests and the query layer.
  Result<TokenSequence> ReadWithIds(std::vector<NodeId>* ids);

  /// True when the id refers to a live node.
  bool Exists(NodeId id);

  /// Id of the first top-level node (NotFound on an empty store).
  Result<NodeId> FirstTopLevelId() const;

  /// Name/value of the begin token of node `id` (cheap peek).
  Result<Token> Describe(NodeId id);

  /// Parses an XML fragment and appends it at the top level — the
  /// convenience form of InsertTopLevel for text input.
  Result<NodeId> LoadXml(std::string_view xml);

  /// Streaming bulk load into an EMPTY store: `read` is called
  /// repeatedly to fill a buffer with the next slice of XML text
  /// (returning 0 at EOF), and tokens flow straight into ranges as they
  /// are tokenized — the document is never materialized as a token
  /// vector, so multi-GB inputs load in O(range) memory. Ranges are cut
  /// at max_range_bytes (or a 64 KiB default when unbounded), the range
  /// index and dictionary grow as pages fill, and the store is
  /// checkpointed once at the end. Bypasses the logical WAL: a crash
  /// mid-load leaves a store that must be re-initialized (all-or-
  /// nothing, like any offline load). Defined in store/bulk_load.cc.
  Result<BulkLoadStats> BulkLoad(
      const std::function<Result<size_t>(char* buf, size_t cap)>& read);

  /// BulkLoad from a file on disk, reading `chunk_bytes` at a time.
  Result<BulkLoadStats> BulkLoadFile(const std::string& path,
                                     size_t chunk_bytes = 1 << 20);

  /// Serializes the whole store back to XML text.
  Result<std::string> SerializeToXml(const SerializerOptions& options = {});

  /// Maintenance: merges adjacent ranges whose combined payload stays
  /// within `target_bytes`, eliminating split remnants and micro-ranges
  /// so the range count tracks the *current* document instead of its
  /// entire update history (the paper's §7 "more optimizations of the
  /// read/update/storage overhead"). Only id-contiguous neighbors merge
  /// (the consecutive-id invariant is preserved); memoized locations in
  /// merged ranges are invalidated and, in full-index mode, their nodes
  /// re-pointed. Returns the number of merges performed.
  Result<uint64_t> CompactRanges(uint32_t target_bytes);

  /// Streaming cursor over the whole store in document order.
  std::unique_ptr<TokenCursor> NewCursor() const;

  /// One full document scan that memoizes pre/post intervals for every
  /// element tag into the structural index (no-op when the index is
  /// off). fsck and benches use it; queries warm lazily on their own.
  Status WarmStructuralIndex() const;

  /// Flushes everything, persists bootstrap metadata, and truncates the
  /// WAL (checkpoint).
  Status Sync();

  /// TEST ONLY: simulates a process crash — drops all buffered state
  /// without writing it back. The on-disk image stays at the last
  /// checkpoint; the WAL (when enabled) holds everything since.
  void TestOnlyCrash();

  // -------------------------------------------------------------------
  // Introspection (benches, examples, tests).

  const StoreOptions& options() const { return options_; }
  const StoreStats& stats() const { return stats_; }
  /// The per-store name dictionary (never null). Interning happens only
  /// inside mutations (exclusive latch); lookups are latch-shared-safe.
  NameDictionary* name_dictionary() const { return dict_.get(); }
  /// Codec version newly written ranges get (from options().token_codec).
  uint8_t write_codec() const {
    return options_.token_codec >= 2 ? kTokenCodecV2 : kTokenCodecV1;
  }
  const RangeIndex& range_index() const { return ranges_->index(); }
  const PartialIndex& partial_index() const { return partial_; }
  PartialIndex& mutable_partial_index() { return partial_; }
  /// The structural XPath index (never null; disabled when
  /// options().structural_index == kOff). Non-const through a const
  /// store for the same reason Partial Index memoization works under
  /// SharedStore's shared latch: the index is internally synchronized,
  /// and warming is a logical read.
  StructuralIndex* structural_index() const { return structural_.get(); }
  const RangeManager& range_manager() const { return *ranges_; }
  Pager* pager() { return pager_.get(); }
  /// The WAL handle (nullptr unless options().enable_wal on a
  /// file-backed store). SharedStore builds its group-commit sequencer
  /// on it; Wal::appended_lsn() captured while holding the write latch
  /// is the commit LSN to wait durable on.
  Wal* wal() { return wal_.get(); }
  uint64_t node_high_water() const { return next_node_id_ - 1; }
  uint64_t live_node_count() const {
    return stats_.nodes_inserted - stats_.nodes_deleted;
  }
  uint64_t full_index_size() const {
    return full_ ? full_->size() : 0;
  }

  /// Renders the Range Index in the shape of the paper's Tables 2-3
  /// (RangeId, BlockId, StartId, EndId).
  std::string DebugRangeTable() const;

  /// Renders the Partial Index in the shape of the paper's Table 4.
  std::string DebugPartialTable() const {
    return partial_.ToTableString();
  }

  /// Runs the cross-layer integrity auditor (src/audit/) over every
  /// persistent structure — range chain, Range/Partial/Full indexes,
  /// slotted heap pages, B+-trees, WAL, buffer pool pins — and returns
  /// Corruption describing the first issues when anything is off.
  /// Read-only; also runs automatically every
  /// options().paranoid_audit_interval mutations when that is non-zero.
  Status CheckIntegrity() const;

  /// True when the store was opened for offline inspection: mutations
  /// and Sync fail with NotSupported and nothing is written back.
  bool read_only() const { return options_.pager.read_only; }

  /// True when Open() replayed logical WAL records (the in-memory state
  /// diverges from the checkpoint image until the next checkpoint —
  /// which a read-only open never writes). laxml_fsck uses this to
  /// decide whether the raw page sweep is meaningful.
  bool replayed_wal_tail() const { return replayed_tail_; }

  // -------------------------------------------------------------------
  // Fail-stop degradation.

  /// True once a post-open I/O / corruption / out-of-space error
  /// fail-stopped the store. A poisoned store rejects every further
  /// mutation and Sync with Status::Poisoned carrying the original
  /// cause; reads keep working against the in-memory state (explicit
  /// degraded read-only mode, best effort). Nothing is checkpointed on
  /// close — the on-disk image stays at the last good checkpoint and
  /// the WAL tail replays on the next open.
  bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// The sticky error mutations are rejected with (OK when healthy).
  Status poison_status() const;

  /// Fail-stops the store with `cause`. Idempotent (first cause wins)
  /// and callable from any thread — SharedStore poisons from committer
  /// threads when a group-commit fsync fails after the latch was
  /// released.
  void Poison(const Status& cause);

 private:
  friend class TokenCursor;
  friend class Recovery;
  friend class StoreAuditor;

  Store(std::unique_ptr<Pager> pager, const StoreOptions& options);

  /// Exact position of a token inside a range.
  struct Located {
    RangeId range = kInvalidRangeId;
    uint32_t byte_offset = 0;
    uint32_t token_index = 0;
    /// Node-beginning tokens in the range strictly before this one.
    uint32_t begins_before = 0;
    Token token;
    /// Encoded length of `token` under the range's codec — byte_offset +
    /// encoded_len is the next token's offset. Never recompute this from
    /// the token (EncodedTokenSize is v1 arithmetic; the range may be v2).
    uint32_t encoded_len = 0;
    /// Codec version of the containing range (decode context for
    /// follow-on payload reads without re-fetching the range meta).
    uint8_t codec = kTokenCodecV1;
  };

  /// A range boundary where new ranges get linked, with enough detail
  /// about the split (if one was performed) to rebase other Located
  /// positions inside the split range.
  struct Boundary {
    RangeId left = kInvalidRangeId;   ///< Range before the gap.
    RangeId right = kInvalidRangeId;  ///< Range after the gap.
    bool split = false;               ///< A range was split to make this.
    RangeId split_range = kInvalidRangeId;  ///< The range that was split.
    uint32_t split_offset = 0;
    uint32_t split_token_index = 0;
    uint64_t split_begins = 0;
  };

  Status Bootstrap(bool fresh);
  Status PersistMeta();
  Status LoadMeta(const std::vector<uint8_t>& blob);

  /// Poisoned gate for mutators: the sticky error, or OK.
  Status CheckNotPoisoned() const;
  /// Classifies `st`: environmental failures (I/O, corruption, no
  /// space, exhaustion) poison the store and bump
  /// laxml_io_errors_total{op}; caller errors (NotFound,
  /// InvalidArgument, ...) pass through untouched.
  void MaybePoison(const char* op, const Status& st);
  static void RecordIoError(const char* op);

  template <typename T>
  Result<T> FailStop(const char* op, Result<T> result) {
    if (!result.ok()) MaybePoison(op, result.status());
    return result;
  }
  Status FailStop(const char* op, Status st) {
    if (!st.ok()) MaybePoison(op, st);
    return st;
  }

  // The Table-1 bodies; the public entry points wrap them in the
  // poisoned-gate + fail-stop classification.
  Result<NodeId> InsertBeforeImpl(NodeId id, const TokenSequence& data);
  Result<NodeId> InsertAfterImpl(NodeId id, const TokenSequence& data);
  Result<NodeId> InsertIntoFirstImpl(NodeId id, const TokenSequence& data);
  Result<NodeId> InsertIntoLastImpl(NodeId id, const TokenSequence& data);
  Status DeleteNodeImpl(NodeId id);
  Result<NodeId> ReplaceNodeImpl(NodeId id, const TokenSequence& data);
  Result<NodeId> ReplaceContentImpl(NodeId id, const TokenSequence& data);
  Result<NodeId> InsertTopLevelImpl(const TokenSequence& data);
  Status SyncImpl();

  /// Appends the kCheckpoint epoch header that must open every WAL
  /// epoch (see WalOp::kCheckpoint).
  Status AppendCheckpointHeader();

  /// `need_begin_count` controls whether begins_before must be filled
  /// (boundary/split callers need it; plain reads do not, and skipping
  /// it saves a metadata probe on the memoized fast path). `probed` is
  /// the caller's own Partial Index lookup of `id` (an empty entry on a
  /// miss); null makes LocateBegin look it up.
  Result<Located> LocateBegin(NodeId id, bool need_begin_count = true,
                              const PartialEntry* probed = nullptr);
  /// Locates the end token of the node whose begin is `begin` (returns
  /// `begin` itself for single-token nodes). `begin.begins_before` must
  /// be filled.
  Result<Located> LocateEnd(NodeId id, const Located& begin);
  /// The cursor's current token as a Located.
  static Located LocatedAt(const TokenCursor& cursor);

  /// Splits ranges as needed so that the position just before the token
  /// at `loc` is a range boundary.
  Result<Boundary> EnsureBoundaryBefore(const Located& loc);
  /// Same for the position just after the token at `loc`.
  Result<Boundary> EnsureBoundaryAfter(const Located& loc);

  /// Rebases `loc` when `b`'s split moved its tokens to the tail range.
  static void AdjustAfterSplit(const Boundary& b, Located* loc);

  /// Reads the token at `loc->range` / `loc->byte_offset` under
  /// `loc->codec` (a short slice first, then the full remainder on
  /// truncation), filling loc->token and loc->encoded_len.
  Status FetchTokenAt(Located* loc) const;
  /// FetchTokenAt's first slice: enough for any token without a long
  /// text or attribute value.
  static constexpr size_t kTokenProbeBytes = 512;

  Status LogOp(WalOp op, NodeId target, const TokenSequence& data);

  /// Split + invalidation + (in full mode) tail re-pointing.
  Result<RangeId> SplitRange(RangeId id, uint32_t byte_offset,
                             uint32_t token_index, uint64_t begins_before);

  /// Validates an update payload fragment.
  Status ValidateFragment(const TokenSequence& data) const;

  /// Encodes `data` into one or more ranges (per max_range_bytes) linked
  /// after `left` (kInvalidRangeId = chain head); allocates ids;
  /// maintains indexes. Returns the first id.
  Result<NodeId> StoreFragment(const TokenSequence& data, RangeId left);

  /// Removes the ranges strictly between `left_gap.right` and
  /// `right_boundary` (exclusive), i.e. [first_doomed, right_boundary).
  Status DeleteRangesBetween(RangeId first_doomed, RangeId right_boundary);

  /// Reads tokens from `start` until the node that begins there closes;
  /// appends to *out. *end_loc receives the end token's location (so
  /// Read(id) can memoize it in the Partial Index).
  Status ReadSubtree(const Located& start, NodeId id, TokenSequence* out,
                     Located* end_loc);

  /// Read(id) on a Partial Index entry whose begin and end are memoized
  /// in the same range: one slice from the begin token through the end
  /// token, decoded with the memo's codec. Corruption unless the subtree
  /// closes exactly at the memoized end offset.
  Status ReadMemoizedSubtree(NodeId id, const PartialEntry& memo,
                             TokenSequence* out) const;

  /// In full-index mode, (re)indexes every id-bearing token of a range
  /// payload (encoded with `codec`).
  Status ReindexRange(RangeId range, const uint8_t* payload, size_t len,
                      NodeId start_id, uint8_t codec);

  Status MaybeSync();

  std::unique_ptr<Pager> pager_;
  StoreOptions options_;
  /// Name dictionary resolving v2 payload symbols; persisted in the
  /// meta blob (append-only symbol log) at every checkpoint.
  std::unique_ptr<NameDictionary> dict_;
  std::unique_ptr<RangeManager> ranges_;
  std::unique_ptr<FullIndex> full_;  // kFullIndex mode only
  PartialIndex partial_;
  /// Structural XPath index (internally synchronized; see
  /// structural_index()).
  std::unique_ptr<StructuralIndex> structural_;
  std::unique_ptr<Wal> wal_;  // options_.enable_wal only
  bool replaying_wal_ = false;
  bool replayed_tail_ = false;
  bool crashed_ = false;
  /// Monotone checkpoint counter persisted in the meta blob; the WAL's
  /// leading kCheckpoint record must match it or the log is stale (its
  /// checkpoint completed but the truncate was lost to a crash) and
  /// must not be replayed.
  uint64_t checkpoint_epoch_ = 0;
  /// Fail-stop state. The flag is atomic (readable from committer
  /// threads); the status is guarded by poison_mu_.
  std::atomic<bool> poisoned_{false};
  mutable Mutex poison_mu_;
  Status poison_status_ LAXML_GUARDED_BY(poison_mu_);
  NodeId next_node_id_ = 1;
  /// Mutations since the last paranoid auto-audit (see
  /// StoreOptions::paranoid_audit_interval).
  uint64_t mutations_since_audit_ = 0;
  StoreStats stats_;
};

}  // namespace laxml

#endif  // LAXML_STORE_STORE_H_
