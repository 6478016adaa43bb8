#include "store/store.h"

#include <sys/stat.h>

#include <bit>

#include "audit/store_auditor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "common/logging.h"
#include "common/varint.h"
#include "store/cursor.h"
#include "wal/wal.h"
#include "xml/token_codec.h"
#include "xml/tokenizer.h"

namespace laxml {

namespace {
constexpr uint32_t kStoreMagic = 0x4C585354u;  // "LXST"
// Version 4 keeps each range's payload location in its RangeMeta (56-byte
// meta-tree values) and has no record-directory tree; older stores are
// refused, not migrated. The fixed header (PersistMeta's order) is
// followed by the name dictionary's symbol log.
constexpr uint32_t kStoreVersion = 4;
constexpr size_t kMetaBlobSize = 108;
constexpr size_t kIndexModeOffset = 8;

// A commit sync policy without a log to sync is a contradiction; running
// on without the log would silently drop the durability asked for.
Status CheckWalOptions(const StoreOptions& options) {
  if (options.wal_sync != WalSyncMode::kNone && !options.enable_wal) {
    return Status::InvalidArgument(
        std::string("wal_sync ") + WalSyncModeName(options.wal_sync) +
        " needs enable_wal");
  }
  return Status::OK();
}
}  // namespace

const char* IndexModeName(IndexMode mode) {
  switch (mode) {
    case IndexMode::kFullIndex:
      return "full-index";
    case IndexMode::kRangeIndex:
      return "range-index";
  }
  return "?";
}

const char* WalSyncModeName(WalSyncMode mode) {
  switch (mode) {
    case WalSyncMode::kNone:
      return "none";
    case WalSyncMode::kEveryCommit:
      return "every-commit";
    case WalSyncMode::kGroupCommit:
      return "group-commit";
  }
  return "?";
}

Store::Store(std::unique_ptr<Pager> pager, const StoreOptions& options)
    : pager_(std::move(pager)),
      options_(options),
      dict_(std::make_unique<NameDictionary>()),
      partial_(options.index_mode == IndexMode::kRangeIndex
                   ? options.partial_index_capacity
                   : 0),
      structural_(std::make_unique<StructuralIndex>()) {
  // The serialized dictionary shares the pager meta area with the fixed
  // store header; once the budget is hit, Intern refuses new symbols
  // and v2 payloads fall back to inline names (still decodable).
  uint32_t meta_cap = PageFile::MaxMetaSize(pager_->page_size());
  dict_->set_byte_budget(
      meta_cap > kMetaBlobSize ? meta_cap - kMetaBlobSize : 1);
}

Store::~Store() {
  if (crashed_ || read_only() || poisoned()) {
    // Read-only: buffered state (e.g. an in-memory WAL replay) is
    // deliberately dropped; the disk image must stay untouched.
    // Poisoned: in-memory state is suspect after the failed operation —
    // never checkpoint it over the last good on-disk image; the WAL
    // tail re-creates the acked work on the next open.
    pager_->pool()->DiscardAll();
    return;
  }
  if (ranges_ == nullptr) return;  // bootstrap never completed
  Status st = Sync();
  // A closed store's log is just its checkpoint header: give the
  // pre-zeroed padding back.
  if (st.ok() && wal_ != nullptr) st = wal_->ShrinkToFit();
  if (!st.ok()) {
    LAXML_LOG(kError) << "store sync on close: " << st.ToString();
  }
}

void Store::TestOnlyCrash() {
  pager_->pool()->DiscardAll();
  crashed_ = true;
}

Result<std::unique_ptr<Store>> Store::Open(const std::string& path,
                                           const StoreOptions& options) {
  LAXML_RETURN_IF_ERROR(CheckWalOptions(options));
  LAXML_ASSIGN_OR_RETURN(
      auto pager, Pager::OpenFile(path, options.pager, options.file_wrapper));
  LAXML_ASSIGN_OR_RETURN(auto meta, pager->ReadMeta());
  bool fresh = meta.empty();
  if (fresh && options.pager.read_only) {
    return Status::InvalidArgument(
        "read-only open of a store that was never bootstrapped");
  }
  auto store =
      std::unique_ptr<Store>(new Store(std::move(pager), options));
  if (options.enable_wal) {
    std::string wal_path = path + ".wal";
    // Read-only inspection must not create a WAL file as a side effect;
    // a missing log simply means there is no tail to replay.
    bool have_wal = true;
    if (options.pager.read_only) {
      struct stat sb;
      have_wal = ::stat(wal_path.c_str(), &sb) == 0;
    }
    if (have_wal) {
      LAXML_ASSIGN_OR_RETURN(
          auto file, OpenWrapped(wal_path, options.pager.read_only,
                                 options.file_wrapper));
      LAXML_ASSIGN_OR_RETURN(store->wal_, Wal::Open(std::move(file)));
      // The logical WAL can only replay against an unmodified checkpoint
      // image: dirty frames must not be stolen and freed pages must not
      // be clobbered until the next checkpoint.
      store->pager_->pool()->set_no_steal(true);
      store->pager_->set_defer_frees(true);
    }
  }
  Status booted = store->Bootstrap(fresh);
  if (!booted.ok()) {
    // A store that did not finish recovering must not checkpoint on
    // close: its image lacks the log's acked work, and the checkpoint's
    // log reset would erase that work.
    store->Poison(booted);
    return booted;
  }
  return store;
}

Result<std::unique_ptr<Store>> Store::OpenInMemory(
    const StoreOptions& options) {
  LAXML_RETURN_IF_ERROR(CheckWalOptions(options));
  if (options.enable_wal) {
    return Status::InvalidArgument(
        "WAL requires a file-backed store (nothing survives an in-memory "
        "crash anyway)");
  }
  LAXML_ASSIGN_OR_RETURN(auto pager, Pager::OpenInMemory(options.pager));
  auto store =
      std::unique_ptr<Store>(new Store(std::move(pager), options));
  LAXML_RETURN_IF_ERROR(store->Bootstrap(/*fresh=*/true));
  return store;
}

Status Store::Bootstrap(bool fresh) {
  if (fresh) {
    LAXML_ASSIGN_OR_RETURN(ranges_, RangeManager::Create(pager_.get()));
    ranges_->set_dictionary(dict_.get());
    if (options_.index_mode == IndexMode::kFullIndex) {
      LAXML_ASSIGN_OR_RETURN(full_, FullIndex::Create(pager_.get()));
    }
    // Full checkpoint, not just the meta blob: the initial structures
    // (empty trees, heap chain) must be durable before the WAL can be
    // replayed against them after a crash. This also truncates any
    // stale WAL left beside a recreated store file.
    LAXML_RETURN_IF_ERROR(Sync());
  } else {
    LAXML_ASSIGN_OR_RETURN(auto blob, pager_->ReadMeta());
    LAXML_RETURN_IF_ERROR(LoadMeta(blob));
  }
  // Recovery: replay any journaled operations since the last checkpoint.
  if (wal_ != nullptr) {
    // A crash mid-append (or mid-group-commit batch) leaves a torn
    // record at the tail; those bytes were never acknowledged, so drop
    // them from the file before replaying — audits that run during or
    // after recovery then see exactly the log that was executed. The
    // trim decodes the log once and hands back what it kept; a
    // read-only open leaves the file alone and only reads it.
    std::vector<WalRecord> records;
    if (read_only()) {
      LAXML_ASSIGN_OR_RETURN(records, wal_->ReadAll());
    } else {
      LAXML_ASSIGN_OR_RETURN(records, wal_->TrimTornTail());
    }
    // Epoch protocol: every WAL epoch opens with a kCheckpoint record
    // naming the checkpoint it continues from. A mismatch means the
    // checkpoint completed but the crash beat the log truncation —
    // every record here is already inside the on-disk image and
    // replaying it would double-apply (silent wrong answers, the worst
    // failure class). Such a stale log is skipped and reset.
    bool stale_log = false;
    size_t first_op = 0;
    if (!records.empty()) {
      if (records[0].op != WalOp::kCheckpoint) {
        return Status::Corruption("wal missing checkpoint header");
      }
      stale_log = records[0].target != checkpoint_epoch_;
      first_op = 1;
    }
    if (!stale_log && records.size() > first_op) {
      LAXML_LOG(kInfo) << "replaying " << records.size() - first_op
                       << " WAL records";
      replaying_wal_ = true;
      replayed_tail_ = true;
      for (size_t ri = first_op; ri < records.size(); ++ri) {
        const WalRecord& rec = records[ri];
        TokenSequence data;
        if (!rec.payload.empty()) {
          auto decoded = DecodeTokens(Slice(rec.payload));
          if (!decoded.ok()) {
            replaying_wal_ = false;
            return decoded.status();
          }
          data = std::move(decoded).value();
        }
        Status st = Apply(rec.op, rec.target, data).status();
        // Deterministic replay: an op that failed originally fails the
        // same way now; only environmental errors abort recovery.
        // Poisoned means an earlier record already hit one — skipping
        // the remainder would silently drop committed work. A stray
        // kCheckpoint is rejected by Apply as a caller error: skipped.
        if (!st.ok() && (st.IsIOError() || st.IsCorruption() ||
                         st.IsResourceExhausted() || st.IsNoSpace() ||
                         st.IsPoisoned())) {
          replaying_wal_ = false;
          return st;
        }
      }
      replaying_wal_ = false;
      if (!read_only()) {
        LAXML_RETURN_IF_ERROR(Sync());  // checkpoint the recovered state
      }
    } else if (!read_only()) {
      if (stale_log) {
        // Reset: truncate the absorbed log and open a fresh epoch.
        LAXML_RETURN_IF_ERROR(Sync());
      } else if (records.empty()) {
        // A crash landed between the truncate and the header append (or
        // the log was created beside an existing store); restore the
        // header so the epoch protocol stays closed.
        LAXML_RETURN_IF_ERROR(AppendCheckpointHeader());
      }
    }
  }
  return Status::OK();
}

Status Store::PersistMeta() {
  std::vector<uint8_t> blob;
  blob.reserve(kMetaBlobSize);
  PutFixed32(&blob, kStoreMagic);
  PutFixed32(&blob, kStoreVersion);
  PutFixed32(&blob, static_cast<uint32_t>(options_.index_mode));
  PutFixed32(&blob, 0);  // flags
  PutFixed64(&blob, next_node_id_);
  RangeManagerState rs = ranges_->state();
  PutFixed32(&blob, rs.data_head);
  PutFixed32(&blob, rs.meta_tree_root);
  PutFixed32(&blob, full_ ? full_->root() : kInvalidPageId);
  PutFixed64(&blob, rs.next_range_id);
  PutFixed64(&blob, rs.first_range);
  PutFixed64(&blob, rs.last_range);
  PutFixed64(&blob, rs.range_count);
  PutFixed64(&blob, stats_.nodes_inserted);
  PutFixed64(&blob, stats_.nodes_deleted);
  PutFixed64(&blob, stats_.tokens_inserted);
  PutFixed64(&blob, stats_.bytes_inserted);
  PutFixed64(&blob, checkpoint_epoch_);
  // The dictionary's append-only symbol log rides after the fixed
  // header. Intern's byte budget guarantees this stays within the
  // pager's meta capacity.
  dict_->Serialize(&blob);
  return pager_->WriteMeta(Slice(blob));
}

Result<IndexMode> Store::StoredIndexMode(const std::vector<uint8_t>& meta) {
  if (meta.size() < kIndexModeOffset + 4) {
    return Status::Corruption("store meta blob truncated (" +
                              std::to_string(meta.size()) + " bytes)");
  }
  if (DecodeFixed32(meta.data()) != kStoreMagic) {
    return Status::Corruption("bad store magic");
  }
  const uint32_t version = DecodeFixed32(meta.data() + 4);
  if (version != kStoreVersion) {
    return Status::NotSupported(
        "store version " + std::to_string(version) + " is not " +
        std::to_string(kStoreVersion) + "; reload the document into a new "
        "store");
  }
  const uint32_t raw = DecodeFixed32(meta.data() + kIndexModeOffset);
  if (raw > static_cast<uint32_t>(IndexMode::kRangeIndex)) {
    return Status::Corruption("unknown index mode " + std::to_string(raw));
  }
  return static_cast<IndexMode>(raw);
}

Status Store::LoadMeta(const std::vector<uint8_t>& blob) {
  LAXML_ASSIGN_OR_RETURN(IndexMode stored_mode, StoredIndexMode(blob));
  if (blob.size() < kMetaBlobSize) {
    return Status::Corruption("store meta blob truncated");
  }
  if (stored_mode != options_.index_mode) {
    return Status::InvalidArgument(
        std::string("store was created with index mode ") +
        IndexModeName(stored_mode) + ", reopen must match");
  }
  const uint8_t* p = blob.data();
  next_node_id_ = DecodeFixed64(p + 16);
  RangeManagerState rs;
  rs.data_head = DecodeFixed32(p + 24);
  rs.meta_tree_root = DecodeFixed32(p + 28);
  PageId full_root = DecodeFixed32(p + 32);
  rs.next_range_id = DecodeFixed64(p + 36);
  rs.first_range = DecodeFixed64(p + 44);
  rs.last_range = DecodeFixed64(p + 52);
  rs.range_count = DecodeFixed64(p + 60);
  stats_.nodes_inserted = DecodeFixed64(p + 68);
  stats_.nodes_deleted = DecodeFixed64(p + 76);
  stats_.tokens_inserted = DecodeFixed64(p + 84);
  stats_.bytes_inserted = DecodeFixed64(p + 92);
  checkpoint_epoch_ = DecodeFixed64(p + 100);
  LAXML_RETURN_IF_ERROR(dict_->Deserialize(
      Slice(p + kMetaBlobSize, blob.size() - kMetaBlobSize)));
  LAXML_ASSIGN_OR_RETURN(ranges_, RangeManager::Open(pager_.get(), rs));
  ranges_->set_dictionary(dict_.get());
  if (options_.index_mode == IndexMode::kFullIndex) {
    if (full_root == kInvalidPageId) {
      return Status::Corruption("full-index mode but no index root");
    }
    LAXML_ASSIGN_OR_RETURN(full_,
                           FullIndex::Open(pager_.get(), full_root));
  }
  return Status::OK();
}

Status Store::Sync() {
  if (read_only()) {
    return Status::NotSupported("store opened read-only");
  }
  // A poisoned store must never checkpoint: its in-memory state is
  // suspect after the failed operation, and a checkpoint would replace
  // the last good on-disk image with it.
  LAXML_RETURN_IF_ERROR(poison_status());
  return FailStop(StoreOp::kSync, SyncImpl());
}

Status Store::SyncImpl() {
  LAXML_TRACE_SPAN("store_sync");
  // Checkpoint protocol (WAL case): bump the epoch, persist it in the
  // meta blob, flush every page, then reset the log (zero plus sync) and
  // open the new epoch with a header record. A crash between the page
  // flush and the reset leaves a new checkpoint beside the old log — the
  // epoch mismatch tells recovery that log is absorbed and must not
  // replay.
  if (wal_ != nullptr) ++checkpoint_epoch_;
  LAXML_RETURN_IF_ERROR(PersistMeta());
  LAXML_RETURN_IF_ERROR(pager_->Sync());
  if (wal_ != nullptr) {
    LAXML_RETURN_IF_ERROR(wal_->Truncate());
    LAXML_RETURN_IF_ERROR(AppendCheckpointHeader());
  }
  return Status::OK();
}

Status Store::AppendCheckpointHeader() {
  WalRecord rec;
  rec.op = WalOp::kCheckpoint;
  rec.target = checkpoint_epoch_;
  return wal_->Append(rec, /*sync=*/false);
}

Status Store::poison_status() const {
  if (!poisoned()) return Status::OK();
  MutexLock lock(poison_mu_);
  return poison_status_;
}

void Store::Poison(const Status& cause) {
  MutexLock lock(poison_mu_);
  if (poisoned_.load(std::memory_order_acquire)) return;  // first wins
  poison_status_ =
      Status::Poisoned("store is fail-stopped: " + cause.ToString());
  poisoned_.store(true, std::memory_order_release);
  LAXML_LOG(kError) << "store poisoned: " << cause.ToString();
}

void Store::MaybePoison(StoreOp op, const Status& st) {
  if (!st.IsIOError() && !st.IsCorruption() && !st.IsNoSpace() &&
      !st.IsResourceExhausted()) {
    return;  // caller error, not an environmental failure
  }
  ++stats_.io_errors[static_cast<size_t>(op)];
  Poison(st);
}

Status Store::MaybeSync() {
  // Paranoid builds: re-audit every structure every N mutations so a
  // corrupting bug aborts the operation that planted it, not a distant
  // reader. Runs during WAL replay too (replay is just mutations).
  if (options_.paranoid_audit_interval > 0 &&
      ++mutations_since_audit_ >= options_.paranoid_audit_interval) {
    mutations_since_audit_ = 0;
    LAXML_RETURN_IF_ERROR(CheckIntegrity());
  }
  if (read_only()) return Status::OK();  // replay stays in memory
  // Under WAL no-steal, checkpoint before the pool fills with dirt.
  if (wal_ != nullptr) {
    BufferPool* pool = pager_->pool();
    if (pool->dirty_count() * 4 >= pool->frame_count() * 3) {
      return Sync();
    }
  }
  return Status::OK();
}

Status Store::LogOp(WalOp op, NodeId target, const TokenSequence& data) {
  // Every Table-1 mutator journals before touching structures, so this
  // is also the single choke point that rejects mutation of a
  // read-only store (WAL replay itself excepted).
  if (read_only() && !replaying_wal_) {
    return Status::NotSupported("store opened read-only");
  }
  if (wal_ == nullptr || replaying_wal_) return Status::OK();
  WalRecord rec;
  rec.op = op;
  rec.target = target;
  rec.payload = EncodeTokens(data);
  // kGroupCommit appends unsynced: the caller (SharedStore) waits on the
  // group-commit sequencer after releasing the write latch, so one
  // fdatasync covers every committer appended meanwhile.
  return wal_->Append(rec, options_.wal_sync == WalSyncMode::kEveryCommit);
}

// ---------------------------------------------------------------------------
// Locating

Status Store::SeekBegin(NodeId id, const PartialEntry& memo, size_t bytes,
                        TokenCursor* cursor, Token* token) {
  if (id == kInvalidNodeId || id >= next_node_id_) {
    return Status::NotFound("node id was never allocated");
  }
  if (options_.index_mode == IndexMode::kFullIndex) {
    LAXML_ASSIGN_OR_RETURN(TokenLocation tl, full_->Get(id));
    LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(tl.range_id));
    return cursor->SeekTo({tl.range_id, tl.byte_offset, tl.token_index,
                           static_cast<uint32_t>(id - meta.start_id),
                           meta.codec},
                          token, bytes);
  }
  if (memo.begin) return cursor->SeekTo(*memo.begin, token, bytes);
  // The lazy path (Section 4.3): a coarse index probe, then a scan from
  // the range's first token that regenerates ids up to `id`. Only the
  // target token's strings are decoded.
  LAXML_ASSIGN_OR_RETURN(RangeId rid, ranges_->index().Lookup(id));
  LAXML_RETURN_IF_ERROR(cursor->SeekTo({.range = rid}));
  while (cursor->Valid() && cursor->range() == rid) {
    if (cursor->node_id() == id) {
      *token = cursor->token();
      // Headers read: the range's first token through this one.
      stats_.locate_scan_tokens += cursor->pos().token_index + 1;
      partial_.Record(id, PartialEntry::kBegin, cursor->pos());
      return Status::OK();
    }
    LAXML_RETURN_IF_ERROR(cursor->Next());
  }
  return Status::Corruption("range index pointed at a range missing id " +
                            std::to_string(id));
}

Result<Store::Located> Store::LocateBegin(NodeId id) {
  PartialEntry memo;
  partial_.Lookup(id, &memo);
  TokenCursor cursor(ranges_.get());
  Token token;
  LAXML_RETURN_IF_ERROR(
      SeekBegin(id, memo, TokenCursor::kOneToken, &cursor, &token));
  return Located{cursor.pos(), std::move(token), cursor.encoded_len()};
}

Result<Store::Located> Store::LocateEnd(NodeId id, const Located& begin) {
  if (!begin.token.OpensScope()) {
    return begin;  // single-token node: extent is the begin token itself
  }
  TokenCursor cursor(ranges_.get());
  PartialEntry memo;
  if (partial_.Lookup(id, &memo) && memo.end) {
    LAXML_RETURN_IF_ERROR(
        cursor.SeekTo(*memo.end, nullptr, TokenCursor::kOneToken));
  } else {
    LAXML_RETURN_IF_ERROR(cursor.SeekTo(begin.pos));
    LAXML_RETURN_IF_ERROR(cursor.SkipSubtree());
    stats_.locate_scan_tokens += cursor.skipped_headers();
    partial_.Record(id, PartialEntry::kEnd, cursor.pos());
  }
  return Located{cursor.pos(), cursor.token(), cursor.encoded_len()};
}

// ---------------------------------------------------------------------------
// Structure modification

Result<RangeId> Store::SplitRange(const TokenPos& cut) {
  LAXML_TRACE_SPAN("range_split");
  LAXML_ASSIGN_OR_RETURN(RangeId tail, ranges_->Split(cut));
  // Offsets memoized for the split range may now be stale (those past
  // the cut now live in the tail); drop them. A split leaves the token
  // stream (and thus pre/post numbering) intact, so the structural
  // index loses only the tag lists with begin tokens in this range.
  partial_.InvalidateRange(cut.range);
  structural_->InvalidateRange(cut.range);
  if (full_ != nullptr) {
    // Eager index maintenance: every id that moved into the tail must be
    // re-pointed. This is the honest cost of the full-index baseline.
    LAXML_RETURN_IF_ERROR(ReindexRange(tail));
  }
  return tail;
}

Status Store::ReindexRange(RangeId range) {
  LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(range));
  if (!meta.has_ids()) return Status::OK();
  TokenCursor cursor(ranges_.get());
  LAXML_RETURN_IF_ERROR(cursor.SeekTo({.range = meta.id, .codec = meta.codec}));
  for (uint32_t i = 1;; ++i) {
    if (TokenBeginsNode(cursor.type())) {
      const TokenPos pos = cursor.pos();
      LAXML_RETURN_IF_ERROR(
          full_->Put(meta.start_id + pos.begins_before,
                     {meta.id, pos.offset, pos.token_index}));
      ++stats_.full_index_maintenance;
    }
    if (i == meta.token_count) return Status::OK();
    LAXML_RETURN_IF_ERROR(cursor.Next());
  }
}

Result<Store::Boundary> Store::EnsureBoundaryBefore(const Located& loc) {
  if (loc.pos.offset == 0) {
    LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(loc.pos.range));
    return Boundary{.left = meta.prev, .right = loc.pos.range};
  }
  LAXML_ASSIGN_OR_RETURN(RangeId tail, SplitRange(loc.pos));
  return Boundary{.left = loc.pos.range, .right = tail, .cut = loc.pos};
}

Result<Store::Boundary> Store::EnsureBoundaryAfter(const Located& loc) {
  LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(loc.pos.range));
  // encoded_len, not EncodedTokenSize(loc.token): the latter is v1
  // arithmetic and under-counts nothing but OVER-counts a v2
  // symbol-coded name, landing the "boundary" mid-token.
  const TokenPos next{loc.pos.range, loc.pos.offset + loc.encoded_len,
                      loc.pos.token_index + 1,
                      loc.pos.begins_before + (loc.token.BeginsNode() ? 1 : 0),
                      loc.pos.codec};
  if (next.offset >= meta.byte_len) {
    return Boundary{.left = loc.pos.range, .right = meta.next};
  }
  LAXML_ASSIGN_OR_RETURN(RangeId tail, SplitRange(next));
  return Boundary{.left = loc.pos.range, .right = tail, .cut = next};
}

Status Store::ValidateFragment(const TokenSequence& data) const {
  if (data.empty()) {
    return Status::InvalidArgument("empty fragment");
  }
  for (const Token& t : data) {
    if (t.type == TokenType::kBeginDocument ||
        t.type == TokenType::kEndDocument) {
      return Status::InvalidArgument(
          "document tokens are not valid update content");
    }
    // End tokens are bare: nothing reads their name or value, and a
    // memo-hit Read(id) pins only kMaxClosingTokenBytes of its end token.
    if (t.ClosesScope() && (!t.name.empty() || !t.value.empty())) {
      return Status::InvalidArgument("end tokens carry no name or value");
    }
  }
  return CheckWellFormedFragment(data);
}

Store::RangeWriter::RangeWriter(Store* store, RangeId left, size_t cap)
    : store_(store), left_(left), cap_(cap), codec_(store->write_codec()) {}

Status Store::RangeWriter::Add(const Token& token) {
  const size_t size = EncodedTokenSizeWith(token, codec_, store_->dict_.get());
  if (cap_ > 0 && buffered_ > 0 && buf_.size() + size > cap_) {
    LAXML_RETURN_IF_ERROR(Flush());
  }
  EncodeTokenWith(token, codec_, store_->dict_.get(), &buf_);
  if (token.BeginsNode()) ++begins_;
  ++buffered_;
  return Status::OK();
}

Status Store::RangeWriter::Flush() {
  if (buffered_ == 0) return Status::OK();
  const NodeId start = begins_ > 0 ? store_->next_node_id_ : kInvalidNodeId;
  LAXML_ASSIGN_OR_RETURN(
      RangeId rid, store_->ranges_->InsertRangeAfter(
                       left_, Slice(buf_), start, begins_, buffered_, codec_));
  if (store_->full_ != nullptr && begins_ > 0) {
    LAXML_RETURN_IF_ERROR(store_->ReindexRange(rid));
  }
  store_->next_node_id_ += begins_;
  store_->stats_.nodes_inserted += begins_;
  store_->stats_.tokens_inserted += buffered_;
  store_->stats_.bytes_inserted += buf_.size();
  tokens += buffered_;
  nodes += begins_;
  bytes += buf_.size();
  ++ranges;
  left_ = rid;
  buf_.clear();
  begins_ = 0;
  buffered_ = 0;
  return Status::OK();
}

Result<NodeId> Store::StoreFragment(const TokenSequence& data,
                                    RangeId left) {
  // Every insert funnels through here, and inserting tokens renumbers
  // every pre/post position after the edit point: intervals memoized
  // under the old numbering must never be compared with new ones, so
  // the whole structural index is discarded (O(1) lazy invalidation —
  // the next query's scan re-warms exactly what it touches).
  if (!data.empty()) structural_->InvalidateAll();
  const NodeId first_id = next_node_id_;
  RangeWriter writer(this, left, options_.max_range_bytes);
  for (const Token& t : data) LAXML_RETURN_IF_ERROR(writer.Add(t));
  LAXML_RETURN_IF_ERROR(writer.Flush());
  return first_id;
}

Status Store::DeleteRangesBetween(RangeId first_doomed,
                                  RangeId right_boundary) {
  RangeId cur = first_doomed;
  std::vector<RangeMeta> doomed;
  uint64_t visited = 0;
  while (cur != kInvalidRangeId && cur != right_boundary) {
    LAXML_RETURN_IF_ERROR(ranges_->CountChainVisit(&visited));
    LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(cur));
    doomed.push_back(meta);
    cur = meta.next;
  }
  // Removing tokens renumbers every pre/post position after the gap —
  // same mass discard as on insert (see StoreFragment).
  if (!doomed.empty()) structural_->InvalidateAll();
  for (const RangeMeta& meta : doomed) {
    if (full_ != nullptr && meta.has_ids()) {
      LAXML_RETURN_IF_ERROR(
          full_->DeleteInterval(meta.start_id, meta.end_id()));
      stats_.full_index_maintenance += meta.id_count;
    }
    partial_.InvalidateRange(meta.id);
    stats_.nodes_deleted += meta.id_count;
    LAXML_RETURN_IF_ERROR(ranges_->DeleteRange(meta.id));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The Table-1 interface

static_assert(static_cast<uint8_t>(StoreOp::kDelete) ==
                  static_cast<uint8_t>(WalOp::kDeleteNode) &&
              static_cast<uint8_t>(StoreOp::kInsertTopLevel) ==
                  static_cast<uint8_t>(WalOp::kInsertTopLevel),
              "StoreOp lists the Table-1 mutators in WalOp order");

Result<NodeId> Store::Apply(WalOp op, NodeId target,
                            const TokenSequence& data) {
  if (op >= WalOp::kCheckpoint) {
    return Status::InvalidArgument(std::string(WalOpName(op)) +
                                   " is not a Table-1 operation");
  }
  // An environmental error (I/O, corruption, out of space) fail-stops the
  // store sticky, so no later mutation can "succeed" past state that
  // never reached disk.
  LAXML_RETURN_IF_ERROR(poison_status());
  const StoreOp kind = static_cast<StoreOp>(op);
  obs::ScopedHistogramTimer timer(&stats_.latency(kind));
  return FailStop(kind, [&]() -> Result<NodeId> {
    if (op == WalOp::kDeleteNode) {
      if (!data.empty()) {
        return Status::InvalidArgument("deleteNode carries no fragment");
      }
    } else if (op != WalOp::kReplaceContent || !data.empty()) {
      LAXML_RETURN_IF_ERROR(ValidateFragment(data));
    }
    if (op == WalOp::kInsertTopLevel && target != kInvalidNodeId) {
      return Status::InvalidArgument("insertTopLevel takes no target");
    }
    // Journal before touching structures: an op that fails below fails
    // the same way on replay.
    LAXML_RETURN_IF_ERROR(LogOp(op, target, data));
    NodeId first = kInvalidNodeId;
    switch (op) {
      case WalOp::kInsertBefore: {
        LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(target));
        LAXML_ASSIGN_OR_RETURN(Boundary b, EnsureBoundaryBefore(begin));
        LAXML_ASSIGN_OR_RETURN(first, StoreFragment(data, b.left));
        // The target's begin token now sits at the head of b.right.
        partial_.Record(target, PartialEntry::kBegin,
                        {b.right, 0, 0, 0, begin.pos.codec});
        ++stats_.inserts;
        break;
      }
      case WalOp::kInsertAfter: {
        LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(target));
        LAXML_ASSIGN_OR_RETURN(Located end, LocateEnd(target, begin));
        LAXML_ASSIGN_OR_RETURN(Boundary b, EnsureBoundaryAfter(end));
        LAXML_ASSIGN_OR_RETURN(first, StoreFragment(data, b.left));
        // Both the begin and end tokens stayed in the head side of any
        // split.
        partial_.Record(target, PartialEntry::kBegin, begin.pos);
        if (begin.token.OpensScope()) {
          partial_.Record(target, PartialEntry::kEnd, end.pos);
        }
        ++stats_.inserts;
        break;
      }
      case WalOp::kInsertIntoFirst: {
        LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(target));
        if (!begin.token.CanHaveChildren()) {
          return Status::InvalidArgument("target node cannot have children");
        }
        LAXML_ASSIGN_OR_RETURN(Boundary b, EnsureBoundaryAfter(begin));
        LAXML_ASSIGN_OR_RETURN(first, StoreFragment(data, b.left));
        partial_.Record(target, PartialEntry::kBegin, begin.pos);
        ++stats_.inserts;
        break;
      }
      case WalOp::kInsertIntoLast: {
        LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(target));
        if (!begin.token.CanHaveChildren()) {
          return Status::InvalidArgument("target node cannot have children");
        }
        LAXML_ASSIGN_OR_RETURN(Located end, LocateEnd(target, begin));
        LAXML_ASSIGN_OR_RETURN(Boundary b, EnsureBoundaryBefore(end));
        LAXML_ASSIGN_OR_RETURN(first, StoreFragment(data, b.left));
        // Memoize the worked-example state (Table 4): the begin token
        // kept its place (any split happened at or before the end token,
        // which is strictly after the begin token); the end token now
        // heads b.right.
        if (!b.Moved(begin.pos)) {
          partial_.Record(target, PartialEntry::kBegin, begin.pos);
        }
        partial_.Record(target, PartialEntry::kEnd,
                        {b.right, 0, 0, 0, end.pos.codec});
        ++stats_.inserts;
        break;
      }
      case WalOp::kDeleteNode:
      case WalOp::kReplaceNode: {
        LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(target));
        LAXML_ASSIGN_OR_RETURN(Located end, LocateEnd(target, begin));
        LAXML_ASSIGN_OR_RETURN(Boundary left_b, EnsureBoundaryBefore(begin));
        end.pos = left_b.Rebased(end.pos);
        LAXML_ASSIGN_OR_RETURN(Boundary right_b, EnsureBoundaryAfter(end));
        LAXML_RETURN_IF_ERROR(
            DeleteRangesBetween(left_b.right, right_b.right));
        partial_.Invalidate(target);
        if (op == WalOp::kDeleteNode) {
          ++stats_.deletes;
          break;
        }
        LAXML_ASSIGN_OR_RETURN(first, StoreFragment(data, left_b.left));
        ++stats_.replaces;
        break;
      }
      case WalOp::kReplaceContent: {
        LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(target));
        if (!begin.token.CanHaveChildren()) {
          return Status::InvalidArgument(
              "target node has no content to replace");
        }
        LAXML_ASSIGN_OR_RETURN(Located end, LocateEnd(target, begin));
        LAXML_ASSIGN_OR_RETURN(Boundary first_b, EnsureBoundaryAfter(begin));
        end.pos = first_b.Rebased(end.pos);
        LAXML_ASSIGN_OR_RETURN(Boundary second_b, EnsureBoundaryBefore(end));
        LAXML_RETURN_IF_ERROR(
            DeleteRangesBetween(first_b.right, second_b.right));
        if (!data.empty()) {
          LAXML_ASSIGN_OR_RETURN(first, StoreFragment(data, first_b.left));
        }
        partial_.Record(target, PartialEntry::kBegin, begin.pos);
        partial_.Record(target, PartialEntry::kEnd,
                        {second_b.right, 0, 0, 0, end.pos.codec});
        ++stats_.replaces;
        break;
      }
      case WalOp::kInsertTopLevel: {
        LAXML_ASSIGN_OR_RETURN(first,
                               StoreFragment(data, ranges_->last_range()));
        ++stats_.inserts;
        break;
      }
      case WalOp::kCheckpoint:
        break;  // rejected above
    }
    LAXML_RETURN_IF_ERROR(MaybeSync());
    return first;
  }());
}

// ---------------------------------------------------------------------------
// Reads

Result<TokenSequence> Store::Read() {
  return ReadWithIds(nullptr);
}

Result<TokenSequence> Store::ReadWithIds(std::vector<NodeId>* ids) {
  obs::ScopedHistogramTimer timer(&stats_.latency(StoreOp::kFullScan));
  // Sized once from the range totals (the auditor checks them against
  // the range metadata), so a scan never holds a doubling's 2x copy. The
  // capacity is rounded up to a power of two: pages past the last token
  // are never touched, so they cost no resident memory, and scans of a
  // store whose size drifts ask the allocator for one block size, so a
  // block freed by one scan fits the next instead of growing the heap.
  // One slot more than the tokens: each token decodes straight into a
  // fresh slot, and the one the end of the chain leaves is dropped.
  const size_t capacity = std::bit_ceil(ranges_->total_tokens() + 1);
  TokenSequence out;
  out.reserve(capacity);
  if (ids != nullptr) {
    ids->clear();
    ids->reserve(capacity);
  }
  TokenCursor cursor(ranges_.get());
  LAXML_RETURN_IF_ERROR(cursor.SeekToFirst(&out.emplace_back()));
  while (cursor.Valid()) {
    if (ids != nullptr) ids->push_back(cursor.node_id());
    LAXML_RETURN_IF_ERROR(cursor.Next(&out.emplace_back()));
  }
  out.pop_back();
  ++stats_.full_scans;
  return out;
}

Result<TokenSequence> Store::Read(NodeId id) {
  obs::ScopedHistogramTimer timer(&stats_.latency(StoreOp::kReadById));
  // One Partial Index probe serves both the begin and the end memo.
  PartialEntry memo;
  partial_.Lookup(id, &memo);
  TokenSequence out;
  // The walk's first slice: through an end memoized in the begin's range
  // (plus the most a closing token takes), the record end for one in a
  // later range, else one token (the walk re-pins if the node goes on).
  size_t bytes = TokenCursor::kOneToken;
  if (memo.begin && memo.end) {
    if (memo.end->range != memo.begin->range) {
      bytes = TokenCursor::kToRecordEnd;
    } else if (memo.end->token_index > memo.begin->token_index) {
      bytes = size_t{memo.end->offset - memo.begin->offset} +
              kMaxClosingTokenBytes;
      out.reserve(memo.end->token_index - memo.begin->token_index + 1);
    }
  }
  TokenCursor cursor(ranges_.get());
  LAXML_RETURN_IF_ERROR(
      SeekBegin(id, memo, bytes, &cursor, &out.emplace_back()));
  if (TokenOpensScope(cursor.type())) {
    LAXML_RETURN_IF_ERROR(cursor.SkipSubtree(&out));
    if (!memo.end) {
      partial_.Record(id, PartialEntry::kEnd, cursor.pos());
    } else if (cursor.pos() != *memo.end) {
      return Status::Corruption("memoized end of node " + std::to_string(id) +
                                " is not where its subtree closes");
    }
  }
  ++stats_.reads_by_id;
  return out;
}

Result<Token> Store::Describe(NodeId id) {
  LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(id));
  return begin.token;
}

bool Store::Exists(NodeId id) {
  if (id == kInvalidNodeId || id >= next_node_id_) return false;
  if (options_.index_mode == IndexMode::kFullIndex) {
    return full_->Get(id).ok();
  }
  return ranges_->index().Lookup(id).ok();
}

Result<NodeId> Store::FirstTopLevelId() const {
  RangeId cur = ranges_->first_range();
  uint64_t visited = 0;
  while (cur != kInvalidRangeId) {
    LAXML_RETURN_IF_ERROR(ranges_->CountChainVisit(&visited));
    LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(cur));
    if (meta.has_ids()) {
      // The first id-bearing range's first id begins the first node.
      return meta.start_id;
    }
    cur = meta.next;
  }
  return Status::NotFound("store is empty");
}

Result<NodeId> Store::LoadXml(std::string_view xml) {
  LAXML_ASSIGN_OR_RETURN(TokenSequence tokens, ParseFragment(xml));
  return InsertTopLevel(tokens);
}

Result<std::string> Store::SerializeToXml(const SerializerOptions& options) {
  LAXML_ASSIGN_OR_RETURN(TokenSequence all, Read());
  return SerializeTokens(all, options);
}

Result<uint64_t> Store::CompactRanges(uint32_t target_bytes) {
  LAXML_TRACE_SPAN("compact_ranges");
  if (read_only()) {
    return Status::NotSupported("store opened read-only");
  }
  LAXML_RETURN_IF_ERROR(poison_status());
  return FailStop(StoreOp::kCompact, [&]() -> Result<uint64_t> {
    uint64_t merges = 0;
    RangeId cur = ranges_->first_range();
    // Counts the steps on, not the passes: a merge keeps `cur` and
    // leaves one range fewer.
    uint64_t visited = 0;
    while (cur != kInvalidRangeId) {
      LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(cur));
      if (meta.next == kInvalidRangeId) break;
      LAXML_ASSIGN_OR_RETURN(RangeMeta next_meta,
                             ranges_->GetMeta(meta.next));
      LAXML_ASSIGN_OR_RETURN(bool mergeable, ranges_->CanMergeWithNext(cur));
      if (!mergeable ||
          meta.byte_len + next_meta.byte_len > target_bytes) {
        LAXML_RETURN_IF_ERROR(ranges_->CountChainVisit(&visited));
        cur = meta.next;
        continue;
      }
      RangeId dead = meta.next;
      LAXML_RETURN_IF_ERROR(ranges_->MergeWithNext(cur));
      // Offsets into both ranges are stale for memoized locations; the
      // merged range keeps id `cur`, so both must be dropped.
      partial_.InvalidateRange(cur);
      partial_.InvalidateRange(dead);
      // A merge keeps the token stream intact (pre/post numbering holds)
      // but moves begin-token coordinates; range-level invalidation only.
      structural_->InvalidateRange(cur);
      structural_->InvalidateRange(dead);
      if (full_ != nullptr) {
        LAXML_RETURN_IF_ERROR(ReindexRange(cur));
      }
      ++merges;
      // Stay on `cur`: more neighbors may fold in.
    }
    if (merges > 0) {
      LAXML_RETURN_IF_ERROR(MaybeSync());
    }
    return merges;
  }());
}

std::unique_ptr<TokenCursor> Store::NewCursor() const {
  return std::make_unique<TokenCursor>(ranges_.get());
}

Status Store::WarmStructuralIndex() const {
  StructuralWarmer warmer(dict_.get(), {}, /*track_all=*/true);
  auto cursor = NewCursor();
  LAXML_RETURN_IF_ERROR(cursor->SeekToFirst());
  while (cursor->Valid()) {
    warmer.OnToken(*cursor);
    LAXML_RETURN_IF_ERROR(cursor->Next());
  }
  if (!warmer.complete()) {
    return Status::Corruption("unbalanced token stream while warming");
  }
  warmer.Publish(structural_.get());
  return Status::OK();
}

std::string Store::DebugRangeTable() const {
  std::string out = "RangeId  BlockId  StartId  EndId\n";
  ranges_->index().ForEach([&](const RangeIndex::Entry& e) {
    auto block = ranges_->BlockOf(e.range_id);
    out += std::to_string(e.range_id) + "  " +
           (block.ok() ? std::to_string(*block) : std::string("?")) + "  " +
           std::to_string(e.start_id) + "  " + std::to_string(e.end_id) +
           "\n";
  });
  return out;
}

Status Store::CheckIntegrity() const {
  StoreAuditor auditor(this);
  AuditReport report = auditor.Run();
  if (report.ok()) return Status::OK();
  return Status::Corruption("integrity audit found " +
                            std::to_string(report.issues.size()) +
                            " issue(s): " + report.Summary());
}

}  // namespace laxml
