// Fault-injection tests: bit flips in the database file must surface as
// Corruption (never as silent wrong answers), both at open time and
// during later reads; WAL damage degrades to the last intact prefix.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "store/store.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace laxml {
namespace {

using testing::FileSize;
using testing::FlipBit;
using testing::WalLogicalEnd;
using testing::MustFragment;
using testing::TempFile;

StoreOptions SmallStore() {
  StoreOptions options;
  options.pager.page_size = 512;
  options.pager.pool_frames = 16;
  return options;
}

TEST(FaultInjectionTest, BitFlipInDataPageIsDetected) {
  TempFile tmp("flip");
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), SmallStore()));
    for (int i = 0; i < 20; ++i) {
      ASSERT_LAXML_OK(store->LoadXml("<r>payload " + std::to_string(i) +
                                     "</r>")
                          .status());
    }
  }
  long size = FileSize(tmp.path());
  ASSERT_GT(size, 512 * 4);
  // Corrupt a byte in the middle of some non-meta page.
  FlipBit(tmp.path(), 512 * 3 + 100);

  // Either open fails with corruption, or the first full read does —
  // never a silently wrong result.
  auto opened = Store::Open(tmp.path(), SmallStore());
  if (!opened.ok()) {
    EXPECT_TRUE(opened.status().IsCorruption())
        << opened.status().ToString();
    return;
  }
  auto all = (*opened)->Read();
  if (!all.ok()) {
    EXPECT_TRUE(all.status().IsCorruption()) << all.status().ToString();
  } else {
    // The flipped page may be a freed page nobody reads; verify via
    // the integrity audit, which touches every live structure.
    Status st = (*opened)->CheckIntegrity();
    if (!st.ok()) {
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    }
  }
  // Avoid the destructor writing back over the corrupted file state.
  if (opened.ok()) (*opened)->TestOnlyCrash();
}

TEST(FaultInjectionTest, MetaPageCorruptionFailsOpen) {
  TempFile tmp("metaflip");
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), SmallStore()));
    ASSERT_LAXML_OK(store->LoadXml("<x/>").status());
  }
  FlipBit(tmp.path(), 64);  // inside page 0
  auto opened = Store::Open(tmp.path(), SmallStore());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

TEST(FaultInjectionTest, TruncatedFileFailsCleanly) {
  TempFile tmp("trunc");
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), SmallStore()));
    for (int i = 0; i < 30; ++i) {
      ASSERT_LAXML_OK(store->LoadXml("<r>" + std::string(100, 'x') +
                                     "</r>")
                          .status());
    }
  }
  // Chop the file to a fraction of its size (keep the meta page).
  long size = FileSize(tmp.path());
  ASSERT_GT(size, 2048);
  ASSERT_EQ(truncate(tmp.path().c_str(), 1024), 0);
  auto opened = Store::Open(tmp.path(), SmallStore());
  if (opened.ok()) {
    // Structures point past EOF: reads return zero pages, which fail
    // validation somewhere — but never crash or fabricate data.
    auto all = (*opened)->Read();
    EXPECT_FALSE(all.ok());
    (*opened)->TestOnlyCrash();
  } else {
    EXPECT_FALSE(opened.status().ok());
  }
}

TEST(FaultInjectionTest, CorruptWalPrefixSurvivesToLastGoodRecord) {
  TempFile tmp("walflip");
  StoreOptions options = SmallStore();
  options.enable_wal = true;
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    ASSERT_LAXML_OK(store->LoadXml("<a/>").status());
    ASSERT_LAXML_OK(store->LoadXml("<b/>").status());
    ASSERT_LAXML_OK(store->LoadXml("<c/>").status());
    store->TestOnlyCrash();
  }
  // Damage the THIRD record's area: recovery keeps the prefix. The
  // records end at the log's logical end; zero padding follows.
  std::string wal = tmp.path() + ".wal";
  long wal_end = WalLogicalEnd(wal);
  ASSERT_GT(wal_end, 30);
  FlipBit(wal, wal_end - 5);
  {
    ASSERT_OK_AND_ASSIGN(auto store, Store::Open(tmp.path(), options));
    ASSERT_OK_AND_ASSIGN(std::string xml, store->SerializeToXml());
    EXPECT_EQ(xml, "<a/><b/>");  // <c/> was in the torn/poisoned tail
  }
}

}  // namespace
}  // namespace laxml
