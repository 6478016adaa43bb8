// Streaming bulk load: chunked XML text in, ranges out, without ever
// holding the document — neither its text nor its token vector — in
// memory. The StreamTokenizer emits tokens as constructs complete;
// the range writer every insert uses (Store::RangeWriter) encodes them
// into a range-sized byte buffer and flushes it to the range chain as
// it fills. Peak memory is one range payload plus one incomplete
// construct.
//
// Bulk load is an initial-ingest operation, not a logged mutation:
//   * it requires an empty store (the one case where "replay the ops"
//     and "recreate the file" are the same recovery plan);
//   * it bypasses the logical WAL — journaling a multi-GB document
//     through the log would double the write volume for a file that
//     can simply be reloaded — and instead checkpoints (Sync) after
//     the load, so the completed load is exactly as durable as any
//     checkpointed state;
//   * a crash mid-load leaves the store file unspecified; callers
//     recreate it and reload. No-steal is suspended for the duration
//     (there are no logged ops for the steal rule to protect) so the
//     buffer pool can evict dirty pages instead of ballooning.

#include <cstdio>
#include <memory>

#include "obs/trace.h"
#include "store/store.h"
#include "xml/tokenizer.h"

namespace laxml {

namespace {

/// Encoded bytes a range accumulates before it is flushed when the
/// store has no explicit granularity cap. Matches the "few, coarse"
/// end of the paper's axis while keeping single ranges comfortably
/// inside one overflow chain's worth of pages.
constexpr size_t kDefaultBulkRangeBytes = 64 * 1024;

}  // namespace

Result<BulkLoadStats> Store::BulkLoad(
    const std::function<Result<size_t>(char* buf, size_t cap)>& read) {
  LAXML_TRACE_SPAN("bulk_load");
  LAXML_RETURN_IF_ERROR(poison_status());
  if (read_only()) {
    return Status::NotSupported("store opened read-only");
  }
  if (ranges_->first_range() != kInvalidRangeId) {
    return Status::InvalidArgument("bulk load requires an empty store");
  }

  // Suspend no-steal for the unlogged phase; restore unconditionally.
  BufferPool* pool = pager_->pool();
  const bool had_no_steal = pool->no_steal();
  if (had_no_steal) pool->set_no_steal(false);

  BulkLoadStats stats;
  Status st = [&]() -> Status {
    StreamTokenizer tokenizer;
    RangeWriter writer(this, ranges_->last_range(),
                       options_.max_range_bytes > 0 ? options_.max_range_bytes
                                                    : kDefaultBulkRangeBytes);
    auto consume = [&](const TokenSequence& seq) -> Status {
      for (const Token& t : seq) {
        // The document wrapper never hits storage — stored content is
        // the root fragment, exactly what LoadXml produces.
        if (t.type != TokenType::kBeginDocument &&
            t.type != TokenType::kEndDocument) {
          LAXML_RETURN_IF_ERROR(writer.Add(t));
        }
      }
      return Status::OK();
    };

    std::vector<char> chunk(256 * 1024);
    TokenSequence seq;
    while (true) {
      LAXML_ASSIGN_OR_RETURN(size_t n, read(chunk.data(), chunk.size()));
      if (n == 0) break;
      stats.xml_bytes += n;
      seq.clear();
      LAXML_RETURN_IF_ERROR(
          tokenizer.Feed(std::string_view(chunk.data(), n), &seq));
      LAXML_RETURN_IF_ERROR(consume(seq));
    }
    seq.clear();
    LAXML_RETURN_IF_ERROR(tokenizer.Finish(&seq));
    LAXML_RETURN_IF_ERROR(consume(seq));
    LAXML_RETURN_IF_ERROR(writer.Flush());
    stats.tokens = writer.tokens;
    stats.nodes = writer.nodes;
    stats.ranges = writer.ranges;
    stats.payload_bytes = writer.bytes;

    ++stats_.inserts;
    stats_.bulk_load_bytes += stats.xml_bytes;

    // Make the load durable: the checkpoint plays the role the skipped
    // WAL records would have (and truncates any WAL epoch).
    return SyncImpl();
  }();

  if (had_no_steal) pool->set_no_steal(true);
  if (!st.ok()) {
    MaybePoison(StoreOp::kBulkLoad, st);
    return st;
  }
  stats.dict_symbols = dict_->size();
  return stats;
}

Result<BulkLoadStats> Store::BulkLoadFile(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "' for bulk load");
  }
  return BulkLoad([&](char* buf, size_t cap) -> Result<size_t> {
    size_t n = std::fread(buf, 1, cap, f.get());
    if (n < cap && std::ferror(f.get())) {
      return Status::IOError("read failed on '" + path + "'");
    }
    return n;
  });
}

}  // namespace laxml
