// Durability walkthrough: open a file-backed store with the write-ahead
// log, apply updates, simulate a crash before any checkpoint, and watch
// recovery replay the journal on reopen.
//
//   ./crash_recovery [path/to/store.db]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "store/store.h"
#include "xml/serializer.h"
#include "xml/tokenizer.h"

namespace {
#define CHECK_OK(expr)                                                 \
  do {                                                                 \
    ::laxml::Status _st = (expr);                                      \
    if (!_st.ok()) {                                                   \
      std::fprintf(stderr, "error at %s:%d: %s\n", __FILE__, __LINE__, \
                   _st.ToString().c_str());                            \
      std::exit(1);                                                    \
    }                                                                  \
  } while (0)
}  // namespace

int main(int argc, char** argv) {
  using namespace laxml;
  std::string path = argc > 1 ? argv[1] : "/tmp/laxml_recovery_demo.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  StoreOptions options;
  options.enable_wal = true;

  std::string before_crash;
  {
    auto opened = Store::Open(path, options);
    CHECK_OK(opened.status());
    auto store = std::move(opened).value();

    auto doc = ParseFragment("<ledger><entry seq=\"1\">opening</entry>"
                             "</ledger>");
    CHECK_OK(doc.status());
    CHECK_OK(store->InsertTopLevel(*doc).status());
    for (int i = 2; i <= 5; ++i) {
      auto entry = ParseFragment("<entry seq=\"" + std::to_string(i) +
                                 "\">payment " + std::to_string(i * 10) +
                                 "</entry>");
      CHECK_OK(entry.status());
      CHECK_OK(store->InsertIntoLast(1, *entry).status());
    }
    CHECK_OK(store->DeleteNode(2));  // void the opening entry

    auto all = store->Read();
    CHECK_OK(all.status());
    auto xml = SerializeTokens(*all);
    CHECK_OK(xml.status());
    before_crash = *xml;
    std::printf("state before the crash:\n  %s\n", before_crash.c_str());

    std::printf(
        "\n*** simulating a crash: dropping every buffered page without"
        "\n*** write-back; the data file is still at the (empty) initial"
        "\n*** checkpoint, and only the WAL knows what happened.\n");
    store->TestOnlyCrash();
  }

  {
    std::printf("\nreopening %s ...\n", path.c_str());
    auto opened = Store::Open(path, options);  // replays the journal
    CHECK_OK(opened.status());
    auto store = std::move(opened).value();
    auto all = store->Read();
    CHECK_OK(all.status());
    auto xml = SerializeTokens(*all);
    CHECK_OK(xml.status());
    std::printf("state after recovery:\n  %s\n", xml->c_str());
    CHECK_OK(store->CheckIntegrity());
    if (*xml == before_crash) {
      std::printf("\nrecovery reproduced the pre-crash state exactly.\n");
    } else {
      std::printf("\nRECOVERY MISMATCH!\n");
      return 1;
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return 0;
}
