// Ablation E — substrate micro-benchmarks (google-benchmark): token
// codec throughput, CRC32-C, B+-tree point ops, buffer pool hit path,
// record store read paths. These calibrate the cost model behind the
// Table-5 numbers.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "btree/btree.h"
#include "query/xpath_eval.h"
#include "query/xpath_stream.h"
#include "store/store.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "storage/record_store.h"
#include "wal/wal.h"
#include "workload/doc_generator.h"
#include "xml/token_codec.h"
#include "xml/serializer.h"
#include "xml/tokenizer.h"

namespace laxml {
namespace {

TokenSequence BenchDoc(int nodes) {
  Random rng(5);
  return GenerateRandomTree(&rng, nodes, 8);
}

void BM_TokenEncode(benchmark::State& state) {
  TokenSequence doc = BenchDoc(static_cast<int>(state.range(0)));
  uint64_t bytes = 0;
  for (auto _ : state) {
    std::vector<uint8_t> encoded = EncodeTokens(doc);
    bytes += encoded.size();
    benchmark::DoNotOptimize(encoded.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TokenEncode)->Arg(1000)->Arg(10000);

void BM_TokenDecode(benchmark::State& state) {
  std::vector<uint8_t> encoded =
      EncodeTokens(BenchDoc(static_cast<int>(state.range(0))));
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto decoded = DecodeTokens(Slice(encoded));
    BENCH_CHECK(decoded.status());
    bytes += encoded.size();
    benchmark::DoNotOptimize(decoded->data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TokenDecode)->Arg(1000)->Arg(10000);

void BM_TokenSkip(benchmark::State& state) {
  std::vector<uint8_t> encoded = EncodeTokens(BenchDoc(10000));
  uint64_t bytes = 0;
  for (auto _ : state) {
    TokenReader reader{Slice(encoded)};
    TokenType type;
    while (!reader.AtEnd()) {
      BENCH_CHECK(reader.Skip(&type));
    }
    bytes += encoded.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TokenSkip);

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0x5A);
  uint64_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
    bytes += data.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536);

// The table loop Extend() falls back to without SSE4.2, for the ratio.
void BM_Crc32cPortable(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0x5A);
  uint64_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crc32c::ExtendPortable(0, data.data(), data.size()));
    bytes += data.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Crc32cPortable)->Arg(4096)->Arg(65536);

// One durable commit on the real log file: a 48 B record plus its
// fdatasync, with a checkpoint reset (and its epoch header) every 100
// commits, as durable_updates does. The log's file size stays fixed, so
// each sync flushes the record and not a new file size.
void BM_WalCommit(benchmark::State& state) {
  bench::TempDb db("walcommit");
  auto wal = Wal::Open(db.path() + ".wal");
  BENCH_CHECK(wal.status());
  WalRecord rec;
  rec.op = WalOp::kInsertIntoLast;
  rec.target = 1;
  rec.payload.assign(27, 0x5A);  // 8 B frame + 13 B body header + 27 = 48
  WalRecord header;
  header.op = WalOp::kCheckpoint;
  uint64_t commits = 0;
  for (auto _ : state) {
    if (commits % 100 == 0) {
      BENCH_CHECK((*wal)->Truncate());
      header.target = commits / 100;
      BENCH_CHECK((*wal)->Append(header, /*sync=*/false));
    }
    BENCH_CHECK((*wal)->Append(rec, /*sync=*/false));
    BENCH_CHECK((*wal)->Sync());
    ++commits;
  }
  state.SetItemsProcessed(static_cast<int64_t>(commits));
}
BENCHMARK(BM_WalCommit)->UseRealTime();

void BM_XmlParse(benchmark::State& state) {
  Random rng(9);
  auto text = SerializeTokens(GenerateAuctionDocument(&rng, 100));
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto parsed = ParseFragment(*text);
    BENCH_CHECK(parsed.status());
    bytes += text->size();
    benchmark::DoNotOptimize(parsed->data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_XmlParse);

void BM_BTreeInsert(benchmark::State& state) {
  PagerOptions options;
  options.pool_frames = 2048;
  auto pager = Pager::OpenInMemory(options);
  auto tree = BTree::Create(pager.value().get(), 16);
  uint8_t value[16] = {0};
  Random rng(3);
  uint64_t i = 0;
  for (auto _ : state) {
    BENCH_CHECK(tree->Insert(rng.Next64(), Slice(value, 16)));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeGet(benchmark::State& state) {
  PagerOptions options;
  options.pool_frames = 2048;
  auto pager = Pager::OpenInMemory(options);
  auto tree = BTree::Create(pager.value().get(), 16);
  uint8_t value[16] = {0};
  for (uint64_t k = 0; k < 100000; ++k) {
    if (!tree->Insert(k * 7919, Slice(value, 16)).ok()) {
      state.SkipWithError("setup insert failed");
      return;
    }
  }
  Random rng(4);
  uint64_t i = 0;
  for (auto _ : state) {
    uint8_t out[16];
    auto found = tree->Get(rng.Uniform(100000) * 7919, out);
    BENCH_CHECK(found.status());
    benchmark::DoNotOptimize(out);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_BTreeGet);

void BM_BufferPoolHit(benchmark::State& state) {
  PagerOptions options;
  options.pool_frames = 64;
  auto pager = Pager::OpenInMemory(options);
  std::vector<PageId> pages;
  for (int i = 0; i < 32; ++i) {
    auto h = pager.value()->New(PageType::kSlotted);
    pages.push_back(h.value().id());
  }
  Random rng(6);
  uint64_t i = 0;
  for (auto _ : state) {
    auto h = pager.value()->Fetch(pages[rng.Uniform(pages.size())]);
    BENCH_CHECK(h.status());
    benchmark::DoNotOptimize(h->data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_BufferPoolHit);

void BM_RecordStorePinSlice(benchmark::State& state) {
  PagerOptions options;
  options.pool_frames = 2048;
  auto pager = Pager::OpenInMemory(options);
  auto store = RecordStore::Open(pager.value().get(), kInvalidPageId);
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 0xCD);
  auto loc = store.value()->Place(Slice(payload));
  BENCH_CHECK(loc.status());
  Random rng(8);
  uint64_t bytes = 0;
  for (auto _ : state) {
    size_t off = rng.Uniform(payload.size() - 128);
    auto slice = store.value()->PinSlice(*loc, off, 128);
    BENCH_CHECK(slice.status());
    bytes += slice->size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_RecordStorePinSlice)->Arg(2048)->Arg(262144);

void BM_XPathPredicate(benchmark::State& state) {
  Random rng(21);
  auto store = Store::OpenInMemory(StoreOptions{});
  if (!store.ok() ||
      !(*store)->InsertTopLevel(GenerateAuctionDocument(&rng, 120)).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  XPathEvaluator evaluator(store->get());
  uint64_t i = 0;
  for (auto _ : state) {
    // Predicates stream too: one scan, candidates filtered in place.
    auto hits = evaluator.Evaluate("//item[@category='books']/name");
    BENCH_CHECK(hits.status());
    benchmark::DoNotOptimize(hits->data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_XPathPredicate);

void BM_XPathStreaming(benchmark::State& state) {
  Random rng(21);
  auto store = Store::OpenInMemory(StoreOptions{});
  if (!store.ok() ||
      !(*store)->InsertTopLevel(GenerateAuctionDocument(&rng, 120)).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  uint64_t i = 0;
  for (auto _ : state) {
    auto hits = EvaluateXPathStreaming(**store, "//item/name");
    BENCH_CHECK(hits.status());
    benchmark::DoNotOptimize(hits->data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_XPathStreaming);

}  // namespace
}  // namespace laxml

BENCHMARK_MAIN();
