// TokenCursor tests: depth bookkeeping, id regeneration across range
// boundaries, behavior on fragmented stores, agreement with the
// cursor-free ReferenceRead (as the cursor and as Store::ReadWithIds,
// which walks it), the range-local positions the store's locate scans
// take from it, and its pin discipline: at most one buffer-pool pin,
// none once it runs off the end or is destroyed.

#include "store/cursor.h"

#include <gtest/gtest.h>

#include <set>

#include "obs/request_context.h"
#include "query/xpath_stream.h"
#include "store/store.h"
#include "test_util.h"
#include "workload/doc_generator.h"
#include "xml/token_codec.h"

namespace laxml {
namespace {

using testing::MustFragment;
using testing::ReferenceRead;

// Where a token sits, as the store's locate paths record it.
struct Spot {
  RangeId range = kInvalidRangeId;
  uint32_t offset = 0;
  uint32_t index = 0;
  uint32_t begins_before = 0;
  uint32_t encoded_len = 0;
};

// Every token's spot, by brute force: ReferenceRead's tokens laid over
// the range chain's token counts, each re-encoded under its range's
// codec.
std::vector<Spot> BruteForceSpots(Store* store, TokenSequence* tokens,
                                  std::vector<NodeId>* ids) {
  auto read = ReferenceRead(*store, ids);
  EXPECT_TRUE(read.ok());
  *tokens = std::move(read).value();
  std::vector<Spot> spots;
  const RangeManager& ranges = store->range_manager();
  for (RangeId r = ranges.first_range(); r != kInvalidRangeId;) {
    RangeMeta meta = ranges.GetMeta(r).value();
    Spot spot;
    spot.range = r;
    for (; spot.index < meta.token_count; ++spot.index) {
      if (spots.size() >= tokens->size()) return {};
      const Token& token = (*tokens)[spots.size()];
      spot.encoded_len = static_cast<uint32_t>(EncodedTokenSizeWith(
          token, meta.codec, store->name_dictionary()));
      spots.push_back(spot);
      spot.offset += spot.encoded_len;
      if (token.BeginsNode()) ++spot.begins_before;
    }
    r = meta.next;
  }
  EXPECT_EQ(spots.size(), tokens->size());
  return spots;
}

void ExpectAt(const TokenCursor& cursor, const Spot& want, size_t i) {
  EXPECT_EQ(cursor.range(), want.range) << "token " << i;
  EXPECT_EQ(cursor.byte_offset(), want.offset) << "token " << i;
  EXPECT_EQ(cursor.pos().token_index, want.index) << "token " << i;
  EXPECT_EQ(cursor.pos().begins_before, want.begins_before) << "token " << i;
  EXPECT_EQ(cursor.encoded_len(), want.encoded_len) << "token " << i;
}

std::unique_ptr<Store> FragmentedStore(uint32_t token_codec = 2) {
  StoreOptions options;
  options.max_range_bytes = 48;  // many ranges
  options.pager.page_size = 512;
  options.token_codec = token_codec;
  auto opened = Store::OpenInMemory(options);
  EXPECT_TRUE(opened.ok());
  return std::move(opened).value();
}

TEST(CursorTest, EmptyStoreIsImmediatelyInvalid) {
  auto store = FragmentedStore();
  auto cursor = store->NewCursor();
  ASSERT_LAXML_OK(cursor->SeekToFirst());
  EXPECT_FALSE(cursor->Valid());
}

TEST(CursorTest, DepthTracksNesting) {
  auto store = FragmentedStore();
  ASSERT_LAXML_OK(store->LoadXml("<a><b><c/>t</b></a>").status());
  auto cursor = store->NewCursor();
  ASSERT_LAXML_OK(cursor->SeekToFirst());
  std::vector<int64_t> depths;
  while (cursor->Valid()) {
    depths.push_back(cursor->depth());
    ASSERT_LAXML_OK(cursor->Next());
  }
  // <a>0 <b>1 <c>2 </c>2 t2 </b>1 </a>0
  EXPECT_EQ(depths, (std::vector<int64_t>{0, 1, 2, 2, 2, 1, 0}));
}

// A random tree, then splits and id gaps.
void FillAndFragment(Store* store) {
  Random rng(12);
  ASSERT_LAXML_OK(
      store->InsertTopLevel(GenerateRandomTree(&rng, 150, 6)).status());
  ASSERT_LAXML_OK(store->InsertIntoLast(1, MustFragment("<x/>")).status());
  ASSERT_LAXML_OK(store->DeleteNode(3));
}

TEST(CursorTest, AgreesWithReferenceReadOnFragmentedStore) {
  auto store = FragmentedStore();
  ASSERT_NO_FATAL_FAILURE(FillAndFragment(store.get()));

  std::vector<NodeId> expected_ids;
  ASSERT_OK_AND_ASSIGN(TokenSequence expected,
                       ReferenceRead(*store, &expected_ids));
  auto cursor = store->NewCursor();
  ASSERT_LAXML_OK(cursor->SeekToFirst());
  size_t i = 0;
  while (cursor->Valid()) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(cursor->token(), expected[i]) << "token " << i;
    EXPECT_EQ(cursor->node_id(), expected_ids[i]) << "token " << i;
    ASSERT_LAXML_OK(cursor->Next());
    ++i;
  }
  EXPECT_EQ(i, expected.size());
  EXPECT_GT(store->range_manager().range_count(), 3u);
}

TEST(CursorTest, StoreReadWithIdsMatchesReferenceReadUnderBothCodecs) {
  for (uint32_t codec : {kTokenCodecV1, kTokenCodecV2}) {
    SCOPED_TRACE("codec v" + std::to_string(codec));
    auto store = FragmentedStore(codec);
    ASSERT_NO_FATAL_FAILURE(FillAndFragment(store.get()));
    ASSERT_GT(store->range_manager().range_count(), 3u);

    std::vector<NodeId> expected_ids;
    ASSERT_OK_AND_ASSIGN(TokenSequence expected,
                         ReferenceRead(*store, &expected_ids));
    std::vector<NodeId> ids;
    ASSERT_OK_AND_ASSIGN(TokenSequence got, store->ReadWithIds(&ids));
    EXPECT_EQ(got, expected);
    EXPECT_EQ(ids, expected_ids);
    EXPECT_EQ(got.size(), store->range_manager().total_tokens());
  }
}

TEST(CursorTest, RangeAccessorMovesAcrossChain) {
  auto store = FragmentedStore();
  ASSERT_LAXML_OK(store->LoadXml("<r><a>xxxxxxxxxxxxxxx</a>"
                                 "<b>yyyyyyyyyyyyyyy</b></r>")
                      .status());
  auto cursor = store->NewCursor();
  ASSERT_LAXML_OK(cursor->SeekToFirst());
  std::set<RangeId> ranges_seen;
  while (cursor->Valid()) {
    ranges_seen.insert(cursor->range());
    ASSERT_LAXML_OK(cursor->Next());
  }
  EXPECT_EQ(ranges_seen.size(), store->range_manager().range_count());
}

TEST(CursorTest, SeekToFirstRestarts) {
  auto store = FragmentedStore();
  ASSERT_LAXML_OK(store->LoadXml("<a><b/></a>").status());
  auto cursor = store->NewCursor();
  ASSERT_LAXML_OK(cursor->SeekToFirst());
  ASSERT_TRUE(cursor->Valid());
  NodeId first = cursor->node_id();
  ASSERT_LAXML_OK(cursor->Next());
  ASSERT_LAXML_OK(cursor->SeekToFirst());
  EXPECT_EQ(cursor->node_id(), first);
  EXPECT_EQ(cursor->depth(), 0);
}

TEST(CursorTest, SeekToLocationThenSkipSubtreeMatchesBruteForce) {
  auto store = FragmentedStore();
  std::string xml = "<doc><e a=\"1\" bb=\"22\">some text</e><list>";
  for (int i = 0; i < 12; ++i) {
    xml += "<item n=\"" + std::to_string(i) + "\">v" + std::to_string(i) +
           "<!--c--></item>";
  }
  xml += "</list></doc>";
  ASSERT_LAXML_OK(store->LoadXml(xml).status());
  // Splits leave end tokens heading ranges and id-less tails.
  ASSERT_LAXML_OK(store->InsertIntoLast(1, MustFragment("<x y=\"z\"/>"))
                      .status());
  ASSERT_LAXML_OK(store->InsertIntoLast(2, MustFragment("<g/>")).status());
  ASSERT_LAXML_OK(store->DeleteNode(9));

  TokenSequence tokens;
  std::vector<NodeId> ids;
  std::vector<Spot> spots = BruteForceSpots(store.get(), &tokens, &ids);
  ASSERT_EQ(spots.size(), tokens.size());
  ASSERT_GT(store->range_manager().range_count(), 10u);

  // A scan from the first range's first token reports every position.
  TokenCursor cursor(&store->range_manager());
  ASSERT_LAXML_OK(cursor.SeekTo({spots[0].range, 0, 0, 0}));
  for (size_t i = 0; i < tokens.size(); ++i) {
    ASSERT_TRUE(cursor.Valid()) << "token " << i;
    ExpectAt(cursor, spots[i], i);
    EXPECT_EQ(cursor.node_id(), ids[i]) << "token " << i;
    ASSERT_LAXML_OK(cursor.Next());
  }
  EXPECT_FALSE(cursor.Valid());

  // From every scope opener, SkipSubtree lands on the matching end.
  size_t crossings = 0;
  for (size_t b = 0; b < tokens.size(); ++b) {
    if (!tokens[b].OpensScope()) continue;
    const Spot& at = spots[b];
    ASSERT_LAXML_OK(
        cursor.SeekTo({at.range, at.offset, at.index, at.begins_before}));
    ExpectAt(cursor, at, b);
    EXPECT_EQ(cursor.node_id(), ids[b]);
    EXPECT_EQ(cursor.token(), tokens[b]);
    ASSERT_OK_AND_ASSIGN(size_t after_end, SubtreeEnd(tokens, b));
    const size_t end = after_end - 1;
    ASSERT_LAXML_OK(cursor.SkipSubtree());
    ExpectAt(cursor, spots[end], end);
    EXPECT_EQ(cursor.token(), tokens[end]);
    EXPECT_EQ(cursor.ordinal(), at.index + (end - b));
    EXPECT_EQ(cursor.depth(), 0);
    if (spots[end].range != at.range) ++crossings;
  }
  EXPECT_GT(crossings, 3u);
}

TEST(CursorTest, SeekToAttributeEntryReadsItsValue) {
  for (uint32_t codec : {kTokenCodecV1, kTokenCodecV2}) {
    SCOPED_TRACE("codec v" + std::to_string(codec));
    auto store = FragmentedStore(codec);
    ASSERT_LAXML_OK(store
                        ->LoadXml("<r><e k=\"one\">t</e><e k=\"two\"/>"
                                  "<e k=\"three\"><f/></e></r>")
                        .status());
    // Warm the @k postings; each entry points at a begin-attribute.
    ASSERT_LAXML_OK(EvaluateXPathStreaming(*store, "//e/@k").status());
    StructuralIndex::EntryList ks = store->structural_index()->LookupTag("@k");
    ASSERT_NE(ks, nullptr);
    ASSERT_EQ(ks->size(), 3u);
    TokenCursor cursor(&store->range_manager());
    const char* values[] = {"one", "two", "three"};
    for (size_t i = 0; i < ks->size(); ++i) {
      const StructuralEntry& k = (*ks)[i];
      ASSERT_LAXML_OK(cursor.Seek(k, TokenType::kBeginAttribute));
      EXPECT_EQ(cursor.type(), TokenType::kBeginAttribute);
      EXPECT_EQ(cursor.token().name, "k");
      EXPECT_EQ(cursor.token().value, values[i]);
      EXPECT_EQ(cursor.node_id(), k.id);
      EXPECT_EQ(cursor.ordinal(), k.pre);
      EXPECT_EQ(cursor.depth(), static_cast<int64_t>(k.level));
    }
  }
}

TEST(CursorTest, SeekElementEntryOntoAttributeIsCorruption) {
  auto store = FragmentedStore();
  ASSERT_LAXML_OK(store->LoadXml("<r><e k=\"v\"/></r>").status());
  ASSERT_LAXML_OK(EvaluateXPathStreaming(*store, "//e/@k").status());
  StructuralIndex::EntryList ks = store->structural_index()->LookupTag("@k");
  ASSERT_NE(ks, nullptr);
  ASSERT_EQ(ks->size(), 1u);
  TokenCursor cursor(&store->range_manager());
  // An element's seek (the default) onto an attribute's offset.
  Status st = cursor.Seek((*ks)[0]);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_FALSE(cursor.Valid());
  // And an attribute's seek onto an element's.
  StructuralIndex::EntryList es = store->structural_index()->LookupTag("e");
  ASSERT_NE(es, nullptr);
  st = cursor.Seek((*es)[0], TokenType::kBeginAttribute);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_FALSE(cursor.Valid());
}

TEST(CursorTest, HoldsAtMostOnePinAndReleasesIt) {
  auto store = FragmentedStore();
  ASSERT_NO_FATAL_FAILURE(FillAndFragment(store.get()));
  const RangeManager& ranges = store->range_manager();
  ASSERT_GT(ranges.range_count(), 3u);
  ASSERT_OK_AND_ASSIGN(RecordLocation first,
                       ranges.Locate(ranges.first_range()));
  ASSERT_EQ(first.kind, RecordLocation::kInline);
  const BufferPool* pool = store->pager()->pool();
  ASSERT_EQ(pool->pinned_frame_count(), 0u);
  {
    auto cursor = store->NewCursor();
    ASSERT_LAXML_OK(cursor->SeekToFirst());
    std::set<RangeId> walked;
    while (cursor->Valid()) {
      walked.insert(cursor->range());
      ASSERT_LE(pool->pinned_frame_count(), 1u)
          << "at ordinal " << cursor->ordinal();
      ASSERT_LAXML_OK(cursor->Next());
    }
    EXPECT_EQ(walked.size(), ranges.range_count());
    EXPECT_EQ(pool->pinned_frame_count(), 0u) << "ran off the end";
    // Destroyed while it stands in a range.
    ASSERT_LAXML_OK(cursor->SeekToFirst());
    EXPECT_EQ(pool->pinned_frame_count(), 1u);
  }
  EXPECT_EQ(pool->pinned_frame_count(), 0u) << "destroyed";

  // The store's reads leave no pin behind, so a mutation right after
  // each succeeds and the audit finds no pinned frame.
  ASSERT_OK_AND_ASSIGN(TokenSequence root, store->Read(1));
  ASSERT_OK_AND_ASSIGN(TokenSequence again, store->Read(1));  // memo hit
  EXPECT_EQ(again, root);
  ASSERT_LAXML_OK(store->Describe(2).status());
  EXPECT_EQ(pool->pinned_frame_count(), 0u) << "after Read and Describe";
  ASSERT_LAXML_OK(store->InsertIntoLast(1, MustFragment("<y/>")).status());
  {
    obs::RequestContext rc;
    obs::ScopedRequestContext scoped(&rc);
    ASSERT_LAXML_OK(EvaluateXPathStreaming(*store, "//*").status());
#if !defined(LAXML_TRACING_DISABLED)
    EXPECT_STREQ(rc.plan, "stream-scan");
#endif
  }
  EXPECT_EQ(pool->pinned_frame_count(), 0u) << "after a stream scan";
  ASSERT_LAXML_OK(store->InsertIntoLast(1, MustFragment("<z/>")).status());
  EXPECT_LAXML_OK(store->CheckIntegrity());
}

}  // namespace
}  // namespace laxml
