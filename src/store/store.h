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
#include <optional>
#include <string>
#include <vector>

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

  /// The index mode stamped in a store's meta blob (Pager::ReadMeta):
  /// 0 is the Full Index, 1 the lazy Range Index. Any other word, a short
  /// blob or a bad magic is Corruption; a store version other than this
  /// build's is NotSupported, naming it. Opening a store and fsck both
  /// decode the header here.
  static Result<IndexMode> StoredIndexMode(const std::vector<uint8_t>& meta);

  ~Store();

  // -------------------------------------------------------------------
  // The paper's Table-1 interface.

  /// Runs one Table-1 mutation: the only implementation of the eight
  /// operations, shared by the named forms below, WAL replay, SharedStore
  /// and the server. In order it applies the poison gate, starts the
  /// op's latency timer, validates `data` (DeleteNode carries none,
  /// ReplaceContent may be empty, InsertTopLevel takes no `target`),
  /// journals the op, locates/splits/stores/memoizes, bumps the op
  /// counter and MaybeSyncs; an environmental error fail-stops the
  /// store. Returns the id of the first inserted node (kInvalidNodeId
  /// when nothing was inserted). kCheckpoint is InvalidArgument.
  Result<NodeId> Apply(WalOp op, NodeId target, const TokenSequence& data);

  /// Inserts `data` as the preceding sibling(s) of node `id`. Returns
  /// the id of the first inserted node.
  Result<NodeId> InsertBefore(NodeId id, const TokenSequence& data) {
    return Apply(WalOp::kInsertBefore, id, data);
  }

  /// Inserts `data` as the following sibling(s) of node `id`.
  Result<NodeId> InsertAfter(NodeId id, const TokenSequence& data) {
    return Apply(WalOp::kInsertAfter, id, data);
  }

  /// Inserts `data` as the first child(ren) of node `id` (which must be
  /// an element or document node).
  Result<NodeId> InsertIntoFirst(NodeId id, const TokenSequence& data) {
    return Apply(WalOp::kInsertIntoFirst, id, data);
  }

  /// Inserts `data` as the last child(ren) of node `id`.
  Result<NodeId> InsertIntoLast(NodeId id, const TokenSequence& data) {
    return Apply(WalOp::kInsertIntoLast, id, data);
  }

  /// Removes node `id` and its entire subtree.
  Status DeleteNode(NodeId id) {
    return Apply(WalOp::kDeleteNode, id, {}).status();
  }

  /// Replaces node `id` (subtree included) with `data`.
  Result<NodeId> ReplaceNode(NodeId id, const TokenSequence& data) {
    return Apply(WalOp::kReplaceNode, id, data);
  }

  /// Replaces the content (children) of element/document node `id` with
  /// `data`, keeping the node itself. Returns the id of the first
  /// inserted node (kInvalidNodeId when `data` is empty).
  Result<NodeId> ReplaceContent(NodeId id, const TokenSequence& data) {
    return Apply(WalOp::kReplaceContent, id, data);
  }

  /// Reads the entire data source in document order.
  Result<TokenSequence> Read();

  /// Reads the subtree of node `id` (begin token through end token): one
  /// cursor walk from the begin token (memoized or located) to the end
  /// token, which is memoized, or checked against its memo (Corruption
  /// when they differ).
  Result<TokenSequence> Read(NodeId id);

  // -------------------------------------------------------------------
  // Beyond Table 1.

  /// Appends `data` at the end of the top level (the bootstrap insert:
  /// the paper's worked example starts by inserting sibling nodes into
  /// an empty data source). Returns the first inserted id.
  Result<NodeId> InsertTopLevel(const TokenSequence& data) {
    return Apply(WalOp::kInsertTopLevel, kInvalidNodeId, data);
  }

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

  /// BulkLoad from a file on disk.
  Result<BulkLoadStats> BulkLoadFile(const std::string& path);

  /// Serializes the whole store back to compact XML text.
  Result<std::string> SerializeToXml();

  /// Maintenance: merges adjacent ranges whose combined payload stays
  /// within `target_bytes`, eliminating split remnants and micro-ranges
  /// so the range count tracks the *current* document instead of its
  /// entire update history (the paper's §7 "more optimizations of the
  /// read/update/storage overhead"). Only id-contiguous neighbors merge
  /// (the consecutive-id invariant is preserved); memoized locations in
  /// merged ranges are invalidated and, in full-index mode, their nodes
  /// re-pointed. Returns the number of merges performed. Gated like a
  /// mutation: a poisoned store refuses, and an environmental error
  /// fail-stops it.
  Result<uint64_t> CompactRanges(uint32_t target_bytes);

  /// Streaming cursor over the whole store in document order.
  std::unique_ptr<TokenCursor> NewCursor() const;

  /// One full document scan that memoizes pre/post intervals for every
  /// element tag into the structural index. fsck and benches use it;
  /// queries warm lazily on their own.
  Status WarmStructuralIndex() const;

  /// Flushes everything, persists bootstrap metadata, and resets the
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
  const RangeIndex& range_index() const { return ranges_->index(); }
  const PartialIndex& partial_index() const { return partial_; }
  PartialIndex& mutable_partial_index() { return partial_; }
  /// The structural XPath index (never null). Non-const through a const
  /// store for the same reason Partial Index memoization works under
  /// SharedStore's shared latch: the index is internally synchronized,
  /// and warming is a logical read.
  StructuralIndex* structural_index() const { return structural_.get(); }
  const RangeManager& range_manager() const { return *ranges_; }
  /// Test-only seam: the range layer, for tests that plant inconsistent
  /// metadata.
  RangeManager& TestOnlyRangeManager() { return *ranges_; }
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
  friend class StoreAuditor;

  Store(std::unique_ptr<Pager> pager, const StoreOptions& options);

  /// A located token: where it sits and what it is. It holds no pin (the
  /// cursor that read it is gone), so a mutation may follow.
  struct Located {
    TokenPos pos;
    Token token = {};
    /// Stored-form length of `token` — pos.offset + encoded_len is the
    /// next token's offset. Never recompute this from the token
    /// (EncodedTokenSize is inline-form arithmetic).
    uint32_t encoded_len = 0;
  };

  /// A range boundary where new ranges get linked.
  struct Boundary {
    RangeId left = kInvalidRangeId;   ///< Range before the gap.
    RangeId right = kInvalidRangeId;  ///< Range after the gap.
    /// Where a range was split to make the gap (its tail is `right`);
    /// empty when the gap already was a range boundary.
    std::optional<TokenPos> cut = std::nullopt;

    /// True when the split moved the token at `pos` into `right`.
    bool Moved(const TokenPos& pos) const {
      return cut && pos.range == cut->range && pos.offset >= cut->offset;
    }
    /// `pos` after the split: the same token in `right`, counted from the
    /// cut, when Moved; else `pos` unchanged.
    TokenPos Rebased(const TokenPos& pos) const {
      if (!Moved(pos)) return pos;
      return {right, pos.offset - cut->offset,
              pos.token_index - cut->token_index,
              pos.begins_before - cut->begins_before};
    }
  };

  Status Bootstrap(bool fresh);
  Status PersistMeta();
  Status LoadMeta(const std::vector<uint8_t>& blob);

  /// Classifies `st`: environmental failures (I/O, corruption, no
  /// space, exhaustion) poison the store and bump
  /// laxml_io_errors_total{op}; caller errors (NotFound,
  /// InvalidArgument, ...) pass through untouched.
  void MaybePoison(StoreOp op, const Status& st);

  template <typename T>
  Result<T> FailStop(StoreOp op, Result<T> result) {
    if (!result.ok()) MaybePoison(op, result.status());
    return result;
  }
  Status FailStop(StoreOp op, Status st) {
    if (!st.ok()) MaybePoison(op, st);
    return st;
  }

  Status SyncImpl();

  /// Appends the kCheckpoint epoch header that must open every WAL
  /// epoch (see WalOp::kCheckpoint).
  Status AppendCheckpointHeader();

  /// Puts `cursor` on node `id`'s begin token, decoded into *token: by
  /// the full index, `memo` (the caller's Partial Index lookup of `id`)
  /// or a Range Index probe and a memoized scan. A position from an
  /// index pins `bytes` (see TokenCursor::SeekTo).
  Status SeekBegin(NodeId id, const PartialEntry& memo, size_t bytes,
                   TokenCursor* cursor, Token* token);
  /// The begin token of node `id`, with its begin count, ready for a
  /// split or a cursor seek.
  Result<Located> LocateBegin(NodeId id);
  /// Locates the end token of the node whose begin is `begin` (returns
  /// `begin` itself for single-token nodes).
  Result<Located> LocateEnd(NodeId id, const Located& begin);

  /// Splits ranges as needed so that the position just before the token
  /// at `loc` is a range boundary.
  Result<Boundary> EnsureBoundaryBefore(const Located& loc);
  /// Same for the position just after the token at `loc`.
  Result<Boundary> EnsureBoundaryAfter(const Located& loc);

  Status LogOp(WalOp op, NodeId target, const TokenSequence& data);

  /// Splits just before the token at `cut`, then invalidates and (in full
  /// mode) re-points the tail. Returns the tail range.
  Result<RangeId> SplitRange(const TokenPos& cut);

  /// Encodes `data` into one or more ranges (per max_range_bytes) linked
  /// after `left` (kInvalidRangeId = chain head); allocates ids;
  /// maintains indexes. Returns the first id.
  Result<NodeId> StoreFragment(const TokenSequence& data, RangeId left);

  /// The one range writer, behind StoreFragment and BulkLoad. Encodes
  /// each token once, straight into a buffer, and inserts the buffer as
  /// a new range after the last one written (the first after `left`),
  /// cutting before a token that would take a range past `cap` encoded
  /// bytes (0 = never; a range holds at least one token). It tracks each
  /// range's counts and depth profile as it encodes, so no range is
  /// decoded again. Each range allocates its node ids, is reindexed
  /// under kFullIndex, and counts into stats_.
  class RangeWriter {
   public:
    RangeWriter(Store* store, RangeId left, size_t cap);
    Status Add(const Token& token);
    /// Writes the buffered tokens, if any, as a range.
    Status Flush();

    uint64_t tokens = 0;  ///< Tokens written so far.
    uint64_t nodes = 0;   ///< Node ids allocated so far.
    uint64_t ranges = 0;  ///< Ranges inserted so far.
    uint64_t bytes = 0;   ///< Encoded payload bytes written so far.

   private:
    Store* const store_;
    RangeId left_;
    const size_t cap_;
    /// The buffered tokens are buf_[0, len_); the rest is room to
    /// encode into.
    std::vector<uint8_t> buf_;
    size_t len_ = 0;
    uint64_t begins_ = 0;    ///< Node-beginning tokens buffered.
    uint32_t buffered_ = 0;  ///< Tokens buffered.
    int32_t depth_ = 0;      ///< Their net nesting change.
    int32_t min_depth_ = 0;  ///< Their minimum running nesting change.
  };

  /// Removes the ranges strictly between `left_gap.right` and
  /// `right_boundary` (exclusive), i.e. [first_doomed, right_boundary).
  Status DeleteRangesBetween(RangeId first_doomed, RangeId right_boundary);

  /// In full-index mode, (re)indexes every node-beginning token of
  /// `range`, walking it with a cursor.
  Status ReindexRange(RangeId range);

  Status MaybeSync();

  std::unique_ptr<Pager> pager_;
  StoreOptions options_;
  /// Name dictionary resolving payload symbols; persisted in the
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
