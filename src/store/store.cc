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
// Version 2 appended the checkpoint epoch (offset 104) that pairs with
// the WAL's leading kCheckpoint record. Version 3 appends the name
// dictionary's symbol log after the fixed header; version-2 blobs are
// still accepted (their stores predate the dictionary — every range is
// v1 and the dictionary starts empty, to be populated by new writes).
constexpr uint32_t kStoreVersion = 3;
constexpr uint32_t kMinStoreVersion = 2;
constexpr size_t kMetaBlobSize = 112;

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
    case IndexMode::kRangeWithPartial:
      return "range+partial";
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

const char* StructuralIndexModeName(StructuralIndexMode mode) {
  switch (mode) {
    case StructuralIndexMode::kOff:
      return "off";
    case StructuralIndexMode::kLazy:
      return "lazy";
    case StructuralIndexMode::kEager:
      return "eager";
  }
  return "?";
}

Store::Store(std::unique_ptr<Pager> pager, const StoreOptions& options)
    : pager_(std::move(pager)),
      options_(options),
      dict_(std::make_unique<NameDictionary>()),
      partial_(options.index_mode == IndexMode::kRangeWithPartial
                   ? options.partial_index_capacity
                   : 0),
      structural_(
          std::make_unique<StructuralIndex>(options.structural_index)) {
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
  LAXML_ASSIGN_OR_RETURN(auto pager, Pager::OpenFile(path, options.pager));
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
      if (options.wal_file_wrapper) {
        LAXML_ASSIGN_OR_RETURN(std::unique_ptr<PosixWalFile> raw,
                               PosixWalFile::Open(wal_path));
        std::unique_ptr<WalFile> wrapped =
            options.wal_file_wrapper(std::unique_ptr<WalFile>(std::move(raw)));
        if (wrapped == nullptr) {
          return Status::IOError("wal file wrapper rejected '" + wal_path +
                                 "'");
        }
        LAXML_ASSIGN_OR_RETURN(store->wal_, Wal::Open(std::move(wrapped)));
      } else {
        LAXML_ASSIGN_OR_RETURN(store->wal_, Wal::Open(wal_path));
      }
      // The logical WAL can only replay against an unmodified checkpoint
      // image: dirty frames must not be stolen and freed pages must not
      // be clobbered until the next checkpoint.
      store->pager_->pool()->set_no_steal(true);
      store->pager_->set_defer_frees(true);
    }
  }
  LAXML_RETURN_IF_ERROR(store->Bootstrap(fresh));
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
    // after recovery then see exactly the log that was executed.
    if (!read_only()) {
      LAXML_RETURN_IF_ERROR(wal_->TrimTornTail());
    }
    LAXML_ASSIGN_OR_RETURN(auto records, wal_->ReadAll());
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
        Status st;
        switch (rec.op) {
          case WalOp::kInsertBefore:
            st = InsertBefore(rec.target, data).status();
            break;
          case WalOp::kInsertAfter:
            st = InsertAfter(rec.target, data).status();
            break;
          case WalOp::kInsertIntoFirst:
            st = InsertIntoFirst(rec.target, data).status();
            break;
          case WalOp::kInsertIntoLast:
            st = InsertIntoLast(rec.target, data).status();
            break;
          case WalOp::kDeleteNode:
            st = DeleteNode(rec.target);
            break;
          case WalOp::kReplaceNode:
            st = ReplaceNode(rec.target, data).status();
            break;
          case WalOp::kReplaceContent:
            st = ReplaceContent(rec.target, data).status();
            break;
          case WalOp::kInsertTopLevel:
            st = InsertTopLevel(data).status();
            break;
          case WalOp::kCheckpoint:
            break;  // epoch bookkeeping, not a logical operation
        }
        // Deterministic replay: an op that failed originally fails the
        // same way now; only environmental errors abort recovery.
        // Poisoned means an earlier record already hit one — skipping
        // the remainder would silently drop committed work.
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
  PutFixed32(&blob, rs.records.directory_root);
  PutFixed32(&blob, rs.records.data_head);
  PutFixed64(&blob, rs.records.next_record_id);
  PutFixed32(&blob, rs.meta_tree_root);
  PutFixed32(&blob, full_ ? full_->root() : kInvalidPageId);
  PutFixed64(&blob, rs.first_range);
  PutFixed64(&blob, rs.last_range);
  PutFixed64(&blob, rs.range_count);
  PutFixed64(&blob, stats_.nodes_inserted);
  PutFixed64(&blob, stats_.nodes_deleted);
  PutFixed64(&blob, stats_.tokens_inserted);
  PutFixed64(&blob, stats_.bytes_inserted);
  PutFixed64(&blob, checkpoint_epoch_);
  // v3: the dictionary's append-only symbol log rides after the fixed
  // header. Intern's byte budget guarantees this stays within the
  // pager's meta capacity.
  dict_->Serialize(&blob);
  return pager_->WriteMeta(Slice(blob));
}

Status Store::LoadMeta(const std::vector<uint8_t>& blob) {
  if (blob.size() < kMetaBlobSize) {
    return Status::Corruption("store meta blob truncated");
  }
  const uint8_t* p = blob.data();
  if (DecodeFixed32(p) != kStoreMagic) {
    return Status::Corruption("bad store magic");
  }
  uint32_t version = DecodeFixed32(p + 4);
  if (version < kMinStoreVersion || version > kStoreVersion) {
    return Status::Corruption("unsupported store version");
  }
  IndexMode stored_mode = static_cast<IndexMode>(DecodeFixed32(p + 8));
  if (stored_mode != options_.index_mode) {
    return Status::InvalidArgument(
        std::string("store was created with index mode ") +
        IndexModeName(stored_mode) + ", reopen must match");
  }
  next_node_id_ = DecodeFixed64(p + 16);
  RangeManagerState rs;
  rs.records.directory_root = DecodeFixed32(p + 24);
  rs.records.data_head = DecodeFixed32(p + 28);
  rs.records.next_record_id = DecodeFixed64(p + 32);
  rs.meta_tree_root = DecodeFixed32(p + 40);
  PageId full_root = DecodeFixed32(p + 44);
  rs.first_range = DecodeFixed64(p + 48);
  rs.last_range = DecodeFixed64(p + 56);
  rs.range_count = DecodeFixed64(p + 64);
  stats_.nodes_inserted = DecodeFixed64(p + 72);
  stats_.nodes_deleted = DecodeFixed64(p + 80);
  stats_.tokens_inserted = DecodeFixed64(p + 88);
  stats_.bytes_inserted = DecodeFixed64(p + 96);
  checkpoint_epoch_ = DecodeFixed64(p + 104);
  if (version >= 3) {
    LAXML_RETURN_IF_ERROR(dict_->Deserialize(
        Slice(p + kMetaBlobSize, blob.size() - kMetaBlobSize)));
  }
  // A version-2 store simply starts with an empty dictionary: all its
  // ranges are stamped v1 and decode without one. The next checkpoint
  // rewrites the blob at version 3.
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
  LAXML_RETURN_IF_ERROR(CheckNotPoisoned());
  return FailStop("sync", SyncImpl());
}

Status Store::SyncImpl() {
  LAXML_TRACE_SPAN("store_sync");
  // Checkpoint protocol (WAL case): bump the epoch, persist it in the
  // meta blob, flush every page, then truncate the log and open the new
  // epoch with a header record. A crash between the page flush and the
  // truncate leaves a new checkpoint beside the old log — the epoch
  // mismatch tells recovery that log is absorbed and must not replay.
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

Status Store::CheckNotPoisoned() const { return poison_status(); }

void Store::Poison(const Status& cause) {
  MutexLock lock(poison_mu_);
  if (poisoned_.load(std::memory_order_acquire)) return;  // first wins
  poison_status_ =
      Status::Poisoned("store is fail-stopped: " + cause.ToString());
  poisoned_.store(true, std::memory_order_release);
  LAXML_LOG(kError) << "store poisoned: " << cause.ToString();
}

void Store::MaybePoison(const char* op, const Status& st) {
  if (!st.IsIOError() && !st.IsCorruption() && !st.IsNoSpace() &&
      !st.IsResourceExhausted()) {
    return;  // caller error, not an environmental failure
  }
  RecordIoError(op);
  Poison(st);
}

void Store::RecordIoError(const char* op) {
#if !defined(LAXML_METRICS_DISABLED)
  // Runtime-assembled name, so no per-call-site caching macro here.
  obs::MetricsRegistry::Global()
      .GetCounter(std::string("laxml_io_errors_total{op=\"") + op + "\"}")
      ->Inc();
#else
  (void)op;
#endif
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

Status Store::FetchTokenAt(Located* loc) const {
  // ReadSlice clamps to the record end and returns nothing at or past it,
  // so an offset beyond the range fails to decode as Corruption without a
  // metadata probe.
  LAXML_ASSIGN_OR_RETURN(
      auto bytes, ranges_->range_records()->ReadSlice(
                      loc->range, loc->byte_offset, kTokenProbeBytes));
  const TokenCodecContext ctx(loc->codec, dict_.get());
  TokenReader reader{Slice(bytes), ctx};
  Status st = reader.Next(&loc->token);
  if (st.ok()) {
    loc->encoded_len = static_cast<uint32_t>(reader.offset());
    return Status::OK();
  }
  if (bytes.size() < kTokenProbeBytes) return st;
  // The token is longer than the probe; read the full remainder.
  LAXML_ASSIGN_OR_RETURN(bytes, ranges_->range_records()->ReadSlice(
                                    loc->range, loc->byte_offset, UINT32_MAX));
  TokenReader full_reader{Slice(bytes), ctx};
  LAXML_RETURN_IF_ERROR(full_reader.Next(&loc->token));
  loc->encoded_len = static_cast<uint32_t>(full_reader.offset());
  return Status::OK();
}

Result<Store::Located> Store::LocateBegin(NodeId id, bool need_begin_count,
                                          const PartialEntry* probed) {
  if (id == kInvalidNodeId || id >= next_node_id_) {
    return Status::NotFound("node id was never allocated");
  }
  if (options_.index_mode == IndexMode::kFullIndex) {
    LAXML_ASSIGN_OR_RETURN(TokenLocation tl, full_->Get(id));
    LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(tl.range_id));
    Located loc;
    loc.range = tl.range_id;
    loc.byte_offset = tl.byte_offset;
    loc.token_index = tl.token_index;
    loc.begins_before = static_cast<uint32_t>(id - meta.start_id);
    loc.codec = meta.codec;
    LAXML_RETURN_IF_ERROR(FetchTokenAt(&loc));
    return loc;
  }
  PartialEntry memo;
  if (probed != nullptr) {
    memo = *probed;
  } else {
    partial_.Lookup(id, &memo);
  }
  if (memo.has_begin) {
    Located loc;
    loc.range = memo.begin_range;
    loc.byte_offset = memo.begin_offset;
    loc.token_index = memo.begin_token_index;
    loc.codec = memo.begin_codec;
    if (need_begin_count) {
      LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(loc.range));
      loc.begins_before = static_cast<uint32_t>(id - meta.start_id);
    }
    LAXML_RETURN_IF_ERROR(FetchTokenAt(&loc));
    return loc;
  }
  // The lazy path (Section 4.3): a coarse index probe, then a scan from
  // the range's first token that regenerates ids up to `id`. Only the
  // target token's strings are decoded.
  LAXML_ASSIGN_OR_RETURN(RangeId rid, ranges_->index().Lookup(id));
  TokenCursor cursor(ranges_.get());
  LAXML_RETURN_IF_ERROR(cursor.SeekTo(rid, 0, 0, 0));
  while (cursor.Valid() && cursor.range() == rid) {
    if (cursor.node_id() == id) {
      // Headers read: the range's first token through this one.
      stats_.locate_scan_tokens += cursor.token_index() + 1;
      Located loc = LocatedAt(cursor);
      partial_.RecordBegin(id, rid, loc.byte_offset, loc.token_index,
                           loc.codec);
      return loc;
    }
    LAXML_RETURN_IF_ERROR(cursor.Next());
  }
  return Status::Corruption("range index pointed at a range missing id " +
                            std::to_string(id));
}

Result<Store::Located> Store::LocateEnd(NodeId id, const Located& begin) {
  if (!begin.token.OpensScope()) {
    return begin;  // single-token node: extent is the begin token itself
  }
  PartialEntry memo;
  if (partial_.Lookup(id, &memo) && memo.has_end) {
    Located loc;
    loc.range = memo.end_range;
    loc.byte_offset = memo.end_offset;
    loc.token_index = memo.end_token_index;
    loc.begins_before = memo.end_begins_before;
    loc.codec = memo.end_codec;
    LAXML_RETURN_IF_ERROR(FetchTokenAt(&loc));
    return loc;
  }
  TokenCursor cursor(ranges_.get());
  LAXML_RETURN_IF_ERROR(cursor.SeekTo(begin.range, begin.byte_offset,
                                      begin.token_index,
                                      begin.begins_before));
  LAXML_RETURN_IF_ERROR(cursor.SkipSubtree());
  stats_.locate_scan_tokens += cursor.skipped_headers();
  Located loc = LocatedAt(cursor);
  partial_.RecordEnd(id, loc.range, loc.byte_offset, loc.token_index,
                     loc.begins_before, loc.codec);
  return loc;
}

Store::Located Store::LocatedAt(const TokenCursor& cursor) {
  Located loc;
  loc.range = cursor.range();
  loc.byte_offset = cursor.byte_offset();
  loc.token_index = cursor.token_index();
  loc.begins_before = cursor.begins_before();
  loc.token = cursor.token();
  loc.encoded_len = cursor.encoded_len();
  loc.codec = cursor.codec();
  return loc;
}

// ---------------------------------------------------------------------------
// Structure modification

Result<RangeId> Store::SplitRange(RangeId id, uint32_t byte_offset,
                                  uint32_t token_index,
                                  uint64_t begins_before) {
  LAXML_TRACE_SPAN("range_split");
  LAXML_ASSIGN_OR_RETURN(
      RangeId tail, ranges_->Split(id, byte_offset, token_index,
                                   begins_before));
  // Offsets memoized for the split range may now be stale (those past
  // the cut now live in the tail); drop them. A split leaves the token
  // stream (and thus pre/post numbering) intact, so the structural
  // index loses only the tag lists with begin tokens in this range.
  partial_.InvalidateRange(id);
  structural_->InvalidateRange(id);
  if (full_ != nullptr) {
    // Eager index maintenance: every id that moved into the tail must be
    // re-pointed. This is the honest cost of the full-index baseline.
    LAXML_ASSIGN_OR_RETURN(RangeMeta tail_meta, ranges_->GetMeta(tail));
    if (tail_meta.has_ids()) {
      LAXML_ASSIGN_OR_RETURN(auto payload, ranges_->ReadPayload(tail));
      LAXML_RETURN_IF_ERROR(ReindexRange(tail, payload.data(),
                                         payload.size(),
                                         tail_meta.start_id,
                                         tail_meta.codec));
    }
  }
  return tail;
}

Status Store::ReindexRange(RangeId range, const uint8_t* payload,
                           size_t len, NodeId start_id, uint8_t codec) {
  TokenReader reader{Slice(payload, len),
                     TokenCodecContext(codec, dict_.get())};
  NodeId id = start_id;
  uint32_t index = 0;
  TokenType type;
  while (!reader.AtEnd()) {
    size_t offset = reader.offset();
    LAXML_RETURN_IF_ERROR(reader.Skip(&type));
    if (TokenBeginsNode(type)) {
      TokenLocation tl;
      tl.range_id = range;
      tl.byte_offset = static_cast<uint32_t>(offset);
      tl.token_index = index;
      LAXML_RETURN_IF_ERROR(full_->Put(id, tl));
      ++stats_.full_index_maintenance;
      ++id;
    }
    ++index;
  }
  return Status::OK();
}

Result<Store::Boundary> Store::EnsureBoundaryBefore(const Located& loc) {
  LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(loc.range));
  Boundary b;
  if (loc.byte_offset == 0) {
    b.left = meta.prev;
    b.right = loc.range;
    return b;
  }
  LAXML_ASSIGN_OR_RETURN(
      RangeId tail, SplitRange(loc.range, loc.byte_offset, loc.token_index,
                               loc.begins_before));
  b.left = loc.range;
  b.right = tail;
  b.split = true;
  b.split_range = loc.range;
  b.split_offset = loc.byte_offset;
  b.split_token_index = loc.token_index;
  b.split_begins = loc.begins_before;
  return b;
}

Result<Store::Boundary> Store::EnsureBoundaryAfter(const Located& loc) {
  LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(loc.range));
  // encoded_len, not EncodedTokenSize(loc.token): the latter is v1
  // arithmetic and under-counts nothing but OVER-counts a v2
  // symbol-coded name, landing the "boundary" mid-token.
  uint32_t after = loc.byte_offset + loc.encoded_len;
  Boundary b;
  if (after >= meta.byte_len) {
    b.left = loc.range;
    b.right = meta.next;
    return b;
  }
  uint64_t begins_after =
      loc.begins_before + (loc.token.BeginsNode() ? 1 : 0);
  LAXML_ASSIGN_OR_RETURN(
      RangeId tail,
      SplitRange(loc.range, after, loc.token_index + 1, begins_after));
  b.left = loc.range;
  b.right = tail;
  b.split = true;
  b.split_range = loc.range;
  b.split_offset = after;
  b.split_token_index = loc.token_index + 1;
  b.split_begins = begins_after;
  return b;
}

void Store::AdjustAfterSplit(const Boundary& b, Located* loc) {
  if (!b.split || loc->range != b.split_range ||
      loc->byte_offset < b.split_offset) {
    return;
  }
  loc->range = b.right;
  loc->byte_offset -= b.split_offset;
  loc->token_index -= b.split_token_index;
  loc->begins_before -= static_cast<uint32_t>(b.split_begins);
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
    // Memo-hit reads fetch only kMaxClosingTokenBytes past the start of
    // a subtree's closing token.
    if (t.ClosesScope() && (!t.name.empty() || !t.value.empty())) {
      return Status::InvalidArgument("end tokens carry no name or value");
    }
  }
  return CheckWellFormedFragment(data);
}

Result<NodeId> Store::StoreFragment(const TokenSequence& data,
                                    RangeId left) {
  // Every insert funnels through here, and inserting tokens renumbers
  // every pre/post position after the edit point: intervals memoized
  // under the old numbering must never be compared with new ones, so
  // the whole structural index is discarded (O(1) lazy invalidation —
  // the next query's scan re-warms exactly what it touches).
  if (!data.empty()) structural_->InvalidateAll();
  NodeId first_id = next_node_id_;
  const uint8_t codec = write_codec();
  size_t i = 0;
  uint64_t total_begins = 0;
  uint64_t total_bytes = 0;
  while (i < data.size()) {
    // One chunk: up to max_range_bytes of encoded tokens (>= 1 token).
    std::vector<uint8_t> bytes;
    uint64_t begins = 0;
    uint32_t tokens = 0;
    size_t j = i;
    while (j < data.size()) {
      size_t tok_size = EncodedTokenSizeWith(data[j], codec, dict_.get());
      if (options_.max_range_bytes > 0 && tokens > 0 &&
          bytes.size() + tok_size > options_.max_range_bytes) {
        break;
      }
      EncodeTokenWith(data[j], codec, dict_.get(), &bytes);
      if (data[j].BeginsNode()) ++begins;
      ++tokens;
      ++j;
    }
    NodeId chunk_start = begins > 0 ? next_node_id_ : kInvalidNodeId;
    LAXML_ASSIGN_OR_RETURN(
        RangeId rid,
        ranges_->InsertRangeAfter(left, Slice(bytes), chunk_start, begins,
                                  tokens, codec));
    if (full_ != nullptr && begins > 0) {
      LAXML_RETURN_IF_ERROR(ReindexRange(rid, bytes.data(), bytes.size(),
                                         chunk_start, codec));
    }
    next_node_id_ += begins;
    total_begins += begins;
    total_bytes += bytes.size();
    left = rid;
    i = j;
  }
  stats_.nodes_inserted += total_begins;
  stats_.tokens_inserted += data.size();
  stats_.bytes_inserted += total_bytes;
  return first_id;
}

Status Store::DeleteRangesBetween(RangeId first_doomed,
                                  RangeId right_boundary) {
  RangeId cur = first_doomed;
  std::vector<RangeMeta> doomed;
  while (cur != kInvalidRangeId && cur != right_boundary) {
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

// Every mutating entry point passes through the poisoned gate and the
// fail-stop classifier: an environmental error (I/O, corruption, out of
// space) fail-stops the store sticky, so no later mutation can "succeed"
// past state that never reached disk.

Result<NodeId> Store::InsertBefore(NodeId id, const TokenSequence& data) {
  LAXML_RETURN_IF_ERROR(CheckNotPoisoned());
  return FailStop("insert_before", InsertBeforeImpl(id, data));
}

Result<NodeId> Store::InsertAfter(NodeId id, const TokenSequence& data) {
  LAXML_RETURN_IF_ERROR(CheckNotPoisoned());
  return FailStop("insert_after", InsertAfterImpl(id, data));
}

Result<NodeId> Store::InsertIntoFirst(NodeId id, const TokenSequence& data) {
  LAXML_RETURN_IF_ERROR(CheckNotPoisoned());
  return FailStop("insert_into_first", InsertIntoFirstImpl(id, data));
}

Result<NodeId> Store::InsertIntoLast(NodeId id, const TokenSequence& data) {
  LAXML_RETURN_IF_ERROR(CheckNotPoisoned());
  return FailStop("insert_into_last", InsertIntoLastImpl(id, data));
}

Result<NodeId> Store::InsertTopLevel(const TokenSequence& data) {
  LAXML_RETURN_IF_ERROR(CheckNotPoisoned());
  return FailStop("insert_top_level", InsertTopLevelImpl(data));
}

Status Store::DeleteNode(NodeId id) {
  LAXML_RETURN_IF_ERROR(CheckNotPoisoned());
  return FailStop("delete", DeleteNodeImpl(id));
}

Result<NodeId> Store::ReplaceNode(NodeId id, const TokenSequence& data) {
  LAXML_RETURN_IF_ERROR(CheckNotPoisoned());
  return FailStop("replace_node", ReplaceNodeImpl(id, data));
}

Result<NodeId> Store::ReplaceContent(NodeId id, const TokenSequence& data) {
  LAXML_RETURN_IF_ERROR(CheckNotPoisoned());
  return FailStop("replace_content", ReplaceContentImpl(id, data));
}

Result<NodeId> Store::InsertBeforeImpl(NodeId id, const TokenSequence& data) {
  LAXML_SCOPED_LATENCY_US("laxml_store_op_us{op=\"insert_before\"}");
  LAXML_RETURN_IF_ERROR(ValidateFragment(data));
  LAXML_RETURN_IF_ERROR(LogOp(WalOp::kInsertBefore, id, data));
  LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(id));
  LAXML_ASSIGN_OR_RETURN(Boundary b, EnsureBoundaryBefore(begin));
  LAXML_ASSIGN_OR_RETURN(NodeId first, StoreFragment(data, b.left));
  // The target's begin token now sits at the head of b.right.
  partial_.RecordBegin(id, b.right, 0, 0, begin.codec);
  ++stats_.inserts;
  LAXML_RETURN_IF_ERROR(MaybeSync());
  return first;
}

Result<NodeId> Store::InsertAfterImpl(NodeId id, const TokenSequence& data) {
  LAXML_SCOPED_LATENCY_US("laxml_store_op_us{op=\"insert_after\"}");
  LAXML_RETURN_IF_ERROR(ValidateFragment(data));
  LAXML_RETURN_IF_ERROR(LogOp(WalOp::kInsertAfter, id, data));
  LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(id));
  LAXML_ASSIGN_OR_RETURN(Located end, LocateEnd(id, begin));
  LAXML_ASSIGN_OR_RETURN(Boundary b, EnsureBoundaryAfter(end));
  LAXML_ASSIGN_OR_RETURN(NodeId first, StoreFragment(data, b.left));
  // Both the begin and end tokens stayed in the head side of any split.
  partial_.RecordBegin(id, begin.range, begin.byte_offset,
                       begin.token_index, begin.codec);
  if (begin.token.OpensScope()) {
    partial_.RecordEnd(id, end.range, end.byte_offset, end.token_index,
                       end.begins_before, end.codec);
  }
  ++stats_.inserts;
  LAXML_RETURN_IF_ERROR(MaybeSync());
  return first;
}

Result<NodeId> Store::InsertIntoFirstImpl(NodeId id,
                                      const TokenSequence& data) {
  LAXML_SCOPED_LATENCY_US("laxml_store_op_us{op=\"insert_into_first\"}");
  LAXML_RETURN_IF_ERROR(ValidateFragment(data));
  LAXML_RETURN_IF_ERROR(LogOp(WalOp::kInsertIntoFirst, id, data));
  LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(id));
  if (!begin.token.CanHaveChildren()) {
    return Status::InvalidArgument("target node cannot have children");
  }
  LAXML_ASSIGN_OR_RETURN(Boundary b, EnsureBoundaryAfter(begin));
  LAXML_ASSIGN_OR_RETURN(NodeId first, StoreFragment(data, b.left));
  partial_.RecordBegin(id, begin.range, begin.byte_offset,
                       begin.token_index, begin.codec);
  ++stats_.inserts;
  LAXML_RETURN_IF_ERROR(MaybeSync());
  return first;
}

Result<NodeId> Store::InsertIntoLastImpl(NodeId id, const TokenSequence& data) {
  LAXML_SCOPED_LATENCY_US("laxml_store_op_us{op=\"insert_into_last\"}");
  LAXML_RETURN_IF_ERROR(ValidateFragment(data));
  LAXML_RETURN_IF_ERROR(LogOp(WalOp::kInsertIntoLast, id, data));
  LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(id));
  if (!begin.token.CanHaveChildren()) {
    return Status::InvalidArgument("target node cannot have children");
  }
  LAXML_ASSIGN_OR_RETURN(Located end, LocateEnd(id, begin));
  LAXML_ASSIGN_OR_RETURN(Boundary b, EnsureBoundaryBefore(end));
  LAXML_ASSIGN_OR_RETURN(NodeId first, StoreFragment(data, b.left));
  // Memoize the worked-example state (Table 4): the begin token kept its
  // place (any split happened at or before the end token, which is
  // strictly after the begin token); the end token now heads b.right.
  if (begin.range != b.split_range || !b.split ||
      begin.byte_offset < b.split_offset) {
    partial_.RecordBegin(id, begin.range, begin.byte_offset,
                         begin.token_index, begin.codec);
  }
  partial_.RecordEnd(id, b.right, 0, 0, 0, end.codec);
  ++stats_.inserts;
  LAXML_RETURN_IF_ERROR(MaybeSync());
  return first;
}

Result<NodeId> Store::InsertTopLevelImpl(const TokenSequence& data) {
  LAXML_SCOPED_LATENCY_US("laxml_store_op_us{op=\"insert_top_level\"}");
  LAXML_RETURN_IF_ERROR(ValidateFragment(data));
  LAXML_RETURN_IF_ERROR(LogOp(WalOp::kInsertTopLevel, kInvalidNodeId, data));
  LAXML_ASSIGN_OR_RETURN(NodeId first,
                         StoreFragment(data, ranges_->last_range()));
  ++stats_.inserts;
  LAXML_RETURN_IF_ERROR(MaybeSync());
  return first;
}

Status Store::DeleteNodeImpl(NodeId id) {
  LAXML_SCOPED_LATENCY_US("laxml_store_op_us{op=\"delete\"}");
  LAXML_RETURN_IF_ERROR(LogOp(WalOp::kDeleteNode, id, {}));
  LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(id));
  LAXML_ASSIGN_OR_RETURN(Located end, LocateEnd(id, begin));
  LAXML_ASSIGN_OR_RETURN(Boundary left_b, EnsureBoundaryBefore(begin));
  AdjustAfterSplit(left_b, &end);
  LAXML_ASSIGN_OR_RETURN(Boundary right_b, EnsureBoundaryAfter(end));
  LAXML_RETURN_IF_ERROR(DeleteRangesBetween(left_b.right, right_b.right));
  partial_.Invalidate(id);
  ++stats_.deletes;
  LAXML_RETURN_IF_ERROR(MaybeSync());
  return Status::OK();
}

Result<NodeId> Store::ReplaceNodeImpl(NodeId id, const TokenSequence& data) {
  LAXML_SCOPED_LATENCY_US("laxml_store_op_us{op=\"replace_node\"}");
  LAXML_RETURN_IF_ERROR(ValidateFragment(data));
  LAXML_RETURN_IF_ERROR(LogOp(WalOp::kReplaceNode, id, data));
  LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(id));
  LAXML_ASSIGN_OR_RETURN(Located end, LocateEnd(id, begin));
  LAXML_ASSIGN_OR_RETURN(Boundary left_b, EnsureBoundaryBefore(begin));
  AdjustAfterSplit(left_b, &end);
  LAXML_ASSIGN_OR_RETURN(Boundary right_b, EnsureBoundaryAfter(end));
  LAXML_RETURN_IF_ERROR(DeleteRangesBetween(left_b.right, right_b.right));
  partial_.Invalidate(id);
  LAXML_ASSIGN_OR_RETURN(NodeId first, StoreFragment(data, left_b.left));
  ++stats_.replaces;
  LAXML_RETURN_IF_ERROR(MaybeSync());
  return first;
}

Result<NodeId> Store::ReplaceContentImpl(NodeId id, const TokenSequence& data) {
  LAXML_SCOPED_LATENCY_US("laxml_store_op_us{op=\"replace_content\"}");
  if (!data.empty()) {
    LAXML_RETURN_IF_ERROR(ValidateFragment(data));
  }
  LAXML_RETURN_IF_ERROR(LogOp(WalOp::kReplaceContent, id, data));
  LAXML_ASSIGN_OR_RETURN(Located begin, LocateBegin(id));
  if (!begin.token.CanHaveChildren()) {
    return Status::InvalidArgument("target node has no content to replace");
  }
  LAXML_ASSIGN_OR_RETURN(Located end, LocateEnd(id, begin));
  LAXML_ASSIGN_OR_RETURN(Boundary first_b, EnsureBoundaryAfter(begin));
  AdjustAfterSplit(first_b, &end);
  LAXML_ASSIGN_OR_RETURN(Boundary second_b, EnsureBoundaryBefore(end));
  LAXML_RETURN_IF_ERROR(DeleteRangesBetween(first_b.right, second_b.right));
  NodeId first = kInvalidNodeId;
  if (!data.empty()) {
    LAXML_ASSIGN_OR_RETURN(first, StoreFragment(data, first_b.left));
  }
  partial_.RecordBegin(id, begin.range, begin.byte_offset,
                       begin.token_index, begin.codec);
  partial_.RecordEnd(id, second_b.right, 0, 0, 0, end.codec);
  ++stats_.replaces;
  LAXML_RETURN_IF_ERROR(MaybeSync());
  return first;
}

// ---------------------------------------------------------------------------
// Reads

Result<TokenSequence> Store::Read() {
  return ReadWithIds(nullptr);
}

Result<TokenSequence> Store::ReadWithIds(std::vector<NodeId>* ids) {
  LAXML_SCOPED_LATENCY_US("laxml_store_op_us{op=\"full_scan\"}");
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

Status Store::ReadSubtree(const Located& start, NodeId id,
                          TokenSequence* out, Located* end_loc) {
  out->push_back(start.token);
  if (!start.token.OpensScope()) {
    *end_loc = start;
    return Status::OK();
  }
  TokenCursor cursor(ranges_.get());
  LAXML_RETURN_IF_ERROR(cursor.SeekTo(start.range, start.byte_offset,
                                      start.token_index,
                                      start.begins_before));
  // Read locates without the begin count, so the cursor's ids may start
  // short of `id`; the shift corrects an end token in the begin's range
  // (a later range restarts ids from its own start id).
  const NodeId shift = id - cursor.node_id();
  do {
    LAXML_RETURN_IF_ERROR(cursor.Next(&out->emplace_back()));
    if (!cursor.Valid()) {
      return Status::Corruption("node " + std::to_string(id) +
                                " never closes");
    }
  } while (cursor.depth() > 0 || !TokenClosesScope(cursor.type()));
  *end_loc = LocatedAt(cursor);
  if (end_loc->range == start.range) {
    end_loc->begins_before += static_cast<uint32_t>(shift);
  }
  return Status::OK();
}

Status Store::ReadMemoizedSubtree(NodeId id, const PartialEntry& memo,
                                  TokenSequence* out) const {
  if (memo.end_offset <= memo.begin_offset ||
      memo.end_token_index <= memo.begin_token_index) {
    return Status::Corruption("memoized end of node " + std::to_string(id) +
                              " does not follow its begin");
  }
  const uint32_t span = memo.end_offset - memo.begin_offset;
  LAXML_ASSIGN_OR_RETURN(
      auto bytes, ranges_->range_records()->ReadSlice(
                      memo.begin_range, memo.begin_offset,
                      size_t{span} + kMaxClosingTokenBytes));
  TokenReader reader{Slice(bytes),
                     TokenCodecContext(memo.begin_codec, dict_.get())};
  out->reserve(out->size() + memo.end_token_index - memo.begin_token_index +
               1);
  int64_t depth = 0;
  Token token;
  while (!reader.AtEnd()) {
    const size_t offset = reader.offset();
    LAXML_RETURN_IF_ERROR(reader.Next(&token));
    if (token.OpensScope()) {
      ++depth;
    } else if (token.ClosesScope() && --depth <= 0) {
      if (offset != span) break;
      out->push_back(std::move(token));
      return Status::OK();
    }
    out->push_back(std::move(token));
  }
  return Status::Corruption("memoized end of node " + std::to_string(id) +
                            " is not where its subtree closes");
}

Result<TokenSequence> Store::Read(NodeId id) {
  LAXML_SCOPED_LATENCY_US("laxml_store_op_us{op=\"read_by_id\"}");
  TokenSequence out;
  // One Partial Index probe serves both the memo-hit path and the locate.
  PartialEntry memo;
  partial_.Lookup(id, &memo);
  if (memo.has_begin && memo.has_end && memo.end_range == memo.begin_range) {
    LAXML_RETURN_IF_ERROR(ReadMemoizedSubtree(id, memo, &out));
  } else {
    LAXML_ASSIGN_OR_RETURN(
        Located begin, LocateBegin(id, /*need_begin_count=*/false, &memo));
    Located end;
    LAXML_RETURN_IF_ERROR(ReadSubtree(begin, id, &out, &end));
    if (begin.token.OpensScope()) {
      partial_.RecordEnd(id, end.range, end.byte_offset, end.token_index,
                         end.begins_before, end.codec);
    }
  }
  ++stats_.reads_by_id;
  return out;
}

Result<Token> Store::Describe(NodeId id) {
  LAXML_ASSIGN_OR_RETURN(Located begin,
                         LocateBegin(id, /*need_begin_count=*/false));
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
  while (cur != kInvalidRangeId) {
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
  uint64_t merges = 0;
  RangeId cur = ranges_->first_range();
  while (cur != kInvalidRangeId) {
    LAXML_ASSIGN_OR_RETURN(RangeMeta meta, ranges_->GetMeta(cur));
    if (meta.next == kInvalidRangeId) break;
    LAXML_ASSIGN_OR_RETURN(RangeMeta next_meta,
                           ranges_->GetMeta(meta.next));
    LAXML_ASSIGN_OR_RETURN(bool mergeable, ranges_->CanMergeWithNext(cur));
    if (!mergeable ||
        meta.byte_len + next_meta.byte_len > target_bytes) {
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
      LAXML_ASSIGN_OR_RETURN(RangeMeta merged, ranges_->GetMeta(cur));
      if (merged.has_ids()) {
        LAXML_ASSIGN_OR_RETURN(auto payload, ranges_->ReadPayload(cur));
        LAXML_RETURN_IF_ERROR(ReindexRange(cur, payload.data(),
                                           payload.size(), merged.start_id,
                                           merged.codec));
      }
    }
    ++merges;
    // Stay on `cur`: more neighbors may fold in.
  }
  if (merges > 0) {
    LAXML_RETURN_IF_ERROR(MaybeSync());
  }
  return merges;
}

std::unique_ptr<TokenCursor> Store::NewCursor() const {
  return std::make_unique<TokenCursor>(ranges_.get());
}

Status Store::WarmStructuralIndex() const {
  if (!structural_->enabled()) return Status::OK();
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
