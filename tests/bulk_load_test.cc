// Streaming bulk load tests: equivalence with LoadXml, the empty-store
// precondition, durability across reopen, dictionary persistence
// (including crash + WAL-replay re-interning), v1-store compatibility,
// and the dictionary-budget inline fallback.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "store/store.h"
#include "test_util.h"
#include "workload/doc_generator.h"
#include "xml/serializer.h"
#include "xml/token_codec.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::MustSerialize;
using testing::TempFile;

StoreOptions SmallPageOptions() {
  StoreOptions options;
  options.index_mode = IndexMode::kRangeIndex;
  options.pager.page_size = 512;
  options.pager.pool_frames = 64;
  return options;
}

std::string GeneratedXml(int orders, int items) {
  Random rng(42);
  TokenSequence doc = GeneratePurchaseOrdersDocument(&rng, orders, items);
  return MustSerialize(doc);
}

/// Bulk loads `xml` into a fresh store at `tmp`, feeding `chunk`-byte
/// pieces, and returns the stats.
Result<BulkLoadStats> BulkLoadChunked(Store* store, const std::string& xml,
                                      size_t chunk) {
  size_t off = 0;
  return store->BulkLoad([&](char* buf, size_t cap) -> Result<size_t> {
    size_t n = std::min({chunk, cap, xml.size() - off});
    std::memcpy(buf, xml.data() + off, n);
    off += n;
    return n;
  });
}

TEST(BulkLoadTest, MatchesLoadXmlTokenForToken) {
  const std::string xml = GeneratedXml(/*orders=*/40, /*items=*/3);

  TempFile bulk_tmp("bulkeq");
  StoreOptions options = SmallPageOptions();
  options.max_range_bytes = 2048;  // force a multi-range load
  ASSERT_OK_AND_ASSIGN(auto bulk_store,
                       Store::Open(bulk_tmp.path(), options));
  ASSERT_OK_AND_ASSIGN(BulkLoadStats stats,
                       BulkLoadChunked(bulk_store.get(), xml, 97));
  EXPECT_EQ(stats.xml_bytes, xml.size());
  EXPECT_GT(stats.ranges, 1u);
  EXPECT_GT(stats.dict_symbols, 0u);

  TempFile ref_tmp("bulkref");
  ASSERT_OK_AND_ASSIGN(auto ref_store,
                       Store::Open(ref_tmp.path(), SmallPageOptions()));
  ASSERT_LAXML_OK(ref_store->LoadXml(xml).status());

  ASSERT_OK_AND_ASSIGN(TokenSequence got, bulk_store->Read());
  ASSERT_OK_AND_ASSIGN(TokenSequence want, ref_store->Read());
  EXPECT_EQ(EncodeTokens(got), EncodeTokens(want));
  EXPECT_EQ(stats.nodes, bulk_store->stats().nodes_inserted);
  ASSERT_LAXML_OK(bulk_store->CheckIntegrity());
  ASSERT_LAXML_OK(bulk_store->CheckIntegrity());
}

TEST(BulkLoadTest, ChunkSizeIsInvisible) {
  const std::string xml = GeneratedXml(/*orders=*/10, /*items=*/2);
  std::vector<uint8_t> want;
  for (size_t chunk : {size_t{1}, size_t{64}, xml.size()}) {
    TempFile tmp("bulkchunk");
    ASSERT_OK_AND_ASSIGN(auto store,
                         Store::Open(tmp.path(), SmallPageOptions()));
    ASSERT_LAXML_OK(BulkLoadChunked(store.get(), xml, chunk).status());
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    if (want.empty()) {
      want = EncodeTokens(all);
    } else {
      EXPECT_EQ(EncodeTokens(all), want) << "chunk=" << chunk;
    }
  }
}

TEST(BulkLoadTest, RequiresAnEmptyStore) {
  TempFile tmp("bulkempty");
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), SmallPageOptions()));
  ASSERT_LAXML_OK(store->InsertTopLevel(MustFragment("<a/>")).status());
  Status st = BulkLoadChunked(store.get(), "<b/>", 4).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  // The rejection must not poison the store.
  ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
  EXPECT_EQ(MustSerialize(all), "<a/>");
}

TEST(BulkLoadTest, SurvivesReopenAndFurtherMutations) {
  const std::string xml = GeneratedXml(/*orders=*/20, /*items=*/2);
  TempFile tmp("bulkreopen");
  std::vector<uint8_t> want;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         Store::Open(tmp.path(), SmallPageOptions()));
    ASSERT_LAXML_OK(BulkLoadChunked(store.get(), xml, 1024).status());
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    want = EncodeTokens(all);
  }
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         Store::Open(tmp.path(), SmallPageOptions()));
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    EXPECT_EQ(EncodeTokens(all), want);
    // Normal (logged) mutations work on top of the bulk-loaded ranges.
    ASSERT_LAXML_OK(
        store->InsertIntoLast(1, MustFragment("<extra/>")).status());
    ASSERT_LAXML_OK(store->CheckIntegrity());
    ASSERT_LAXML_OK(store->CheckIntegrity());
  }
}

TEST(BulkLoadTest, DictionarySurvivesCrashViaWalReplay) {
  StoreOptions options = SmallPageOptions();
  options.enable_wal = true;
  TempFile tmp("dictcrash");
  std::vector<uint8_t> want;
  uint32_t symbols = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    // Logged mutations only: the WAL carries v1 token bytes and replay
    // must re-intern the same names into the same symbols.
    ASSERT_LAXML_OK(store->InsertTopLevel(
        MustFragment("<db><order id=\"1\"><item>x</item></order></db>")));
    ASSERT_LAXML_OK(
        store->InsertIntoLast(1, MustFragment("<order id=\"2\"/>")).status());
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    want = EncodeTokens(all);
    symbols = store->name_dictionary()->size();
    ASSERT_GT(symbols, 0u);
    store->TestOnlyCrash();
  }
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    EXPECT_TRUE(store->replayed_wal_tail());
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    EXPECT_EQ(EncodeTokens(all), want);
    EXPECT_EQ(store->name_dictionary()->size(), symbols);
    EXPECT_EQ(store->name_dictionary()->Find("order"), 1u);
    ASSERT_LAXML_OK(store->CheckIntegrity());
  }
}

TEST(BulkLoadTest, V1StoresStillOpenAndMixWithV2Writes) {
  TempFile tmp("v1compat");
  std::vector<uint8_t> want_v1;
  {
    StoreOptions v1 = SmallPageOptions();
    v1.token_codec = 1;
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), v1));
    ASSERT_LAXML_OK(store->LoadXml(GeneratedXml(8, 2)).status());
    EXPECT_EQ(store->name_dictionary()->size(), 0u)
        << "v1 writes must not grow the dictionary";
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    want_v1 = EncodeTokens(all);
  }
  {
    // Reopen with the default (v2) codec: old ranges decode as v1, new
    // writes get v2, and both coexist in one chain.
    ASSERT_OK_AND_ASSIGN(auto store,
                         Store::Open(tmp.path(), SmallPageOptions()));
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    EXPECT_EQ(EncodeTokens(all), want_v1);
    ASSERT_LAXML_OK(
        store->InsertIntoLast(1, MustFragment("<v2tag a=\"b\"/>")).status());
    EXPECT_GT(store->name_dictionary()->size(), 0u);
    ASSERT_OK_AND_ASSIGN(TokenSequence after, store->Read());
    ASSERT_OK_AND_ASSIGN(TokenSequence sub, store->Read(1));
    EXPECT_FALSE(after.empty());
    EXPECT_FALSE(sub.empty());
    ASSERT_LAXML_OK(store->CheckIntegrity());
    ASSERT_LAXML_OK(store->CheckIntegrity());
  }
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         Store::Open(tmp.path(), SmallPageOptions()));
    ASSERT_LAXML_OK(store->CheckIntegrity());
  }
}

TEST(BulkLoadTest, DictionaryBudgetFallsBackToInlineNames) {
  // 512-byte pages leave a tiny meta blob; hundreds of distinct names
  // overflow it and must fall back to inline encoding, invisibly.
  TempFile tmp("dictbudget");
  std::string xml = "<root>";
  for (int i = 0; i < 300; ++i) {
    xml += "<tagname" + std::to_string(i) + " attr" + std::to_string(i) +
           "=\"v\"/>";
  }
  xml += "</root>";
  std::vector<uint8_t> want;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         Store::Open(tmp.path(), SmallPageOptions()));
    ASSERT_LAXML_OK(store->LoadXml(xml).status());
    NameDictionary* dict = store->name_dictionary();
    EXPECT_GT(dict->size(), 0u);
    EXPECT_LT(dict->size(), 600u) << "budget never bit on 512B pages";
    EXPECT_EQ(dict->Intern("one-more-name"), kNoNameSymbol);
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    want = EncodeTokens(all);
    ASSERT_LAXML_OK(store->CheckIntegrity());
  }
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         Store::Open(tmp.path(), SmallPageOptions()));
    ASSERT_OK_AND_ASSIGN(TokenSequence all, store->Read());
    EXPECT_EQ(EncodeTokens(all), want);
  }
}

TEST(BulkLoadTest, MalformedInputPoisonsAndReports) {
  TempFile tmp("bulkbad");
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), SmallPageOptions()));
  Status st = BulkLoadChunked(store.get(), "<a><b></a>", 3).status();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsParseError()) << st.ToString();
}

TEST(BulkLoadTest, FullIndexModeIndexesBulkRanges) {
  const std::string xml = GeneratedXml(/*orders=*/15, /*items=*/2);
  StoreOptions options = SmallPageOptions();
  options.index_mode = IndexMode::kFullIndex;
  TempFile tmp("bulkfull");
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
  ASSERT_OK_AND_ASSIGN(BulkLoadStats stats,
                       BulkLoadChunked(store.get(), xml, 512));
  ASSERT_GT(stats.nodes, 0u);
  // Point reads by id go through the full index.
  for (NodeId id = 1; id <= 5; ++id) {
    ASSERT_OK_AND_ASSIGN(TokenSequence sub, store->Read(id));
    EXPECT_FALSE(sub.empty());
  }
  ASSERT_LAXML_OK(store->CheckIntegrity());
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

TEST(BulkLoadTest, UnboundedRangesAreCutAt64KiB) {
  const std::string xml = GeneratedXml(/*orders=*/400, /*items=*/4);
  StoreOptions options;
  options.index_mode = IndexMode::kFullIndex;
  options.max_range_bytes = 0;  // unbounded: bulk load cuts at 64 KiB
  TempFile tmp("bulkcut");
  ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
  ASSERT_OK_AND_ASSIGN(BulkLoadStats stats,
                       BulkLoadChunked(store.get(), xml, 4096));
  ASSERT_GT(stats.payload_bytes, 2u * 64 * 1024);

  const RangeManager& ranges = store->range_manager();
  uint64_t count = 0;
  uint64_t bytes = 0;
  for (RangeId id = ranges.first_range(); id != kInvalidRangeId;) {
    ASSERT_OK_AND_ASSIGN(RangeMeta meta, ranges.GetMeta(id));
    EXPECT_LE(meta.byte_len, 64u * 1024) << "range " << id;
    ++count;
    bytes += meta.byte_len;
    id = meta.next;
  }
  EXPECT_GE(count, 3u);
  EXPECT_EQ(count, stats.ranges);
  EXPECT_EQ(bytes, stats.payload_bytes);

  ASSERT_EQ(store->node_high_water(), stats.nodes);
  for (NodeId id = 1; id <= stats.nodes; ++id) {
    ASSERT_OK_AND_ASSIGN(TokenSequence sub, store->Read(id));
    ASSERT_FALSE(sub.empty()) << "id " << id;
    EXPECT_TRUE(sub.front().BeginsNode()) << "id " << id;
  }
  ASSERT_LAXML_OK(store->CheckIntegrity());
}

}  // namespace
}  // namespace laxml
