// Tests for the disk-backed CST storage subsystem: the TWCST03 page
// format, the pin/unpin buffer manager (including its concurrency
// protocol), the demand-paged CST reader and its record checks,
// hostile-store handling, the store file source and writer, and the
// storage failpoint seams.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "cst/cst.h"
#include "cst/paged_cst.h"
#include "data/generators.h"
#include "query/twig.h"
#include "serve/health.h"
#include "serve/service.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "storage/page_source.h"
#include "storage/page_writer.h"
#include "suffix/path_suffix_tree.h"
#include "suffix/symbol.h"
#include "test_trees.h"
#include "util/failpoint.h"

namespace twig {
namespace {

using storage::BlobPageSource;
using storage::BufferManager;
using storage::PageType;
using storage::PageWriter;
using storage::PinnedPage;

constexpr uint32_t kPage = 512;

/// A minimal valid store: a meta page carrying only the geometry
/// prefix, plus `data_pages` node pages whose payloads are distinct
/// (page i is filled with 'a' + i). Enough structure for the buffer
/// manager, which validates pages but never interprets the directory.
std::string MakeRawStore(uint32_t data_pages, uint32_t page_size = kPage) {
  PageWriter w(page_size);
  w.BeginPage(PageType::kMeta);
  for (uint32_t i = 0; i < data_pages; ++i) {
    w.BeginPage(PageType::kNodes);
    std::string payload(16, static_cast<char>('a' + i % 26));
    w.Append(payload.data(), payload.size());
  }
  std::string meta;
  meta.append(storage::kStoreMagic, sizeof(storage::kStoreMagic));
  const uint32_t version = storage::kStoreVersion;
  const uint32_t count = w.page_count();
  meta.append(reinterpret_cast<const char*>(&version), 4);
  meta.append(reinterpret_cast<const char*>(&page_size), 4);
  meta.append(reinterpret_cast<const char*>(&count), 4);
  w.OverwritePage(0, meta.data(), meta.size());
  return w.Finish();
}

std::shared_ptr<const storage::PageSource> OpenBlob(std::string blob) {
  auto source = BlobPageSource::Open(std::move(blob), "test-store");
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  return std::shared_ptr<const storage::PageSource>(
      std::move(source).value());
}

// ------------------------------------------------------ BufferManager

TEST(BufferManagerTest, HitAvoidsRereading) {
  BufferManager pool(64 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(4)));
  ASSERT_TRUE(id.ok());

  auto first = pool.Pin(id.value(), 2);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().payload_bytes(), 16u);
  EXPECT_EQ(first.value().payload()[0], 'b');  // page 2 = data page 1
  EXPECT_EQ(pool.stats().reads, 1u);

  auto second = pool.Pin(id.value(), 2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().payload()[0], 'b');
  EXPECT_EQ(pool.stats().reads, 1u);  // served from the pool
  EXPECT_EQ(pool.stats().pins, 2u);
}

TEST(BufferManagerTest, RejectsMismatchedSources) {
  BufferManager pool(64 * kPage, kPage);
  EXPECT_FALSE(pool.RegisterSource(nullptr).ok());
  auto mismatched =
      pool.RegisterSource(OpenBlob(MakeRawStore(2, 2 * kPage)));
  EXPECT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST(BufferManagerTest, UnknownSourceAndOutOfRangePage) {
  BufferManager pool(64 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(2)));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(pool.Pin(9999, 0).status().code(), StatusCode::kNotFound);
  // The store has pages 0..2; 3 is past the end.
  EXPECT_EQ(pool.Pin(id.value(), 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BufferManagerTest, ClockEvictsUnpinnedFrames) {
  BufferManager pool(2 * kPage, kPage);  // 2 frames
  ASSERT_EQ(pool.frame_count(), 2u);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(8)));
  ASSERT_TRUE(id.ok());
  // Two sequential sweeps over 9 pages through 2 frames: the second
  // sweep cannot hit (the pool is too small), so everything is read
  // again and the clock must evict constantly.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (uint32_t page = 1; page <= 8; ++page) {
      auto pin = pool.Pin(id.value(), page);
      ASSERT_TRUE(pin.ok()) << pin.status().ToString();
      EXPECT_EQ(pin.value().payload()[0],
                static_cast<char>('a' + (page - 1) % 26));
    }
  }
  const BufferManager::Stats stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.reads, 8u);
  EXPECT_EQ(stats.checksum_failures, 0u);
}

TEST(BufferManagerTest, ExhaustedWhenEveryFrameIsPinned) {
  BufferManager pool(2 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(4)));
  ASSERT_TRUE(id.ok());
  auto a = pool.Pin(id.value(), 1);
  auto b = pool.Pin(id.value(), 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = pool.Pin(id.value(), 3);
  EXPECT_EQ(c.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(pool.stats().exhausted, 0u);
  a.value().Release();
  auto retry = pool.Pin(id.value(), 3);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(BufferManagerTest, DropSourceFreesFramesAndForgetsTheId) {
  BufferManager pool(4 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(3)));
  ASSERT_TRUE(id.ok());
  for (uint32_t page = 0; page <= 3; ++page) {
    auto pin = pool.Pin(id.value(), page);
    ASSERT_TRUE(pin.ok());
  }
  pool.DropSource(id.value());
  EXPECT_EQ(pool.Pin(id.value(), 1).status().code(),
            StatusCode::kNotFound);
  // All four frames are free again: a fresh source can fill the pool
  // without evicting.
  const uint64_t evictions_before = pool.stats().evictions;
  auto fresh = pool.RegisterSource(OpenBlob(MakeRawStore(3)));
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh.value(), id.value());  // ids are never reused
  for (uint32_t page = 0; page <= 3; ++page) {
    auto pin = pool.Pin(fresh.value(), page);
    ASSERT_TRUE(pin.ok());
  }
  EXPECT_EQ(pool.stats().evictions, evictions_before);
}

// ------------------------------------- BufferManager, multi-threaded

TEST(BufferManagerConcurrencyTest, HammerSharedPool) {
  // 8 threads chase 9 pages through a 4-frame pool: constant eviction,
  // constant contention on the same shards. Every pin must see the
  // right payload and the pool must finish with nothing pinned.
  BufferManager pool(4 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(8)));
  ASSERT_TRUE(id.ok());
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const uint32_t page = 1 + (static_cast<uint32_t>(i) * 7 +
                                   static_cast<uint32_t>(t)) %
                                      8;
        auto pin = pool.Pin(id.value(), page);
        if (!pin.ok()) {
          // A full pool is legal under this much concurrency; any
          // other failure is not.
          if (pin.status().code() != StatusCode::kUnavailable) {
            failures.fetch_add(1);
          }
          continue;
        }
        if (pin.value().payload()[0] !=
            static_cast<char>('a' + (page - 1) % 26)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Everything released: a sweep wider than the pool succeeds.
  for (uint32_t page = 0; page <= 8; ++page) {
    auto pin = pool.Pin(id.value(), page);
    EXPECT_TRUE(pin.ok()) << pin.status().ToString();
  }
}

TEST(BufferManagerConcurrencyTest, ConcurrentPinsOfOnePageLoadOnce) {
  BufferManager pool(8 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(4)));
  ASSERT_TRUE(id.ok());
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto pin = pool.Pin(id.value(), 2);
        if (!pin.ok() || pin.value().payload()[0] != 'b') {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // All 1600 pins of the one page resolved to a single read: the
  // kLoading state made racers wait instead of re-reading.
  EXPECT_EQ(pool.stats().reads, 1u);
  EXPECT_EQ(pool.stats().evictions, 0u);
}

TEST(BufferManagerConcurrencyTest, RegisterAndDropRaces) {
  BufferManager pool(4 * kPage, kPage);
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto id = pool.RegisterSource(OpenBlob(MakeRawStore(3)));
        if (!id.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (uint32_t page = 0; page <= 3; ++page) {
          auto pin = pool.Pin(id.value(), page);
          if (!pin.ok() &&
              pin.status().code() != StatusCode::kUnavailable) {
            failures.fetch_add(1);
          }
        }
        pool.DropSource(id.value());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// ------------------------------------------------------------ PagedCst

cst::Cst BuildFullCst(const tree::Tree& data) {
  auto pst = suffix::PathSuffixTree::Build(data);
  cst::CstOptions options;
  options.prune_threshold = 1;
  return cst::Cst::Build(data, pst, options);
}

std::shared_ptr<const cst::PagedCst> OpenPaged(const cst::Cst& memory,
                                               size_t page_size,
                                               size_t pool_bytes) {
  auto blob = memory.SerializePaged(page_size);
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  cst::PagedCstOptions options;
  options.pool_bytes = pool_bytes;
  auto paged = cst::PagedCst::Open(OpenBlob(std::move(blob).value()),
                                   options);
  EXPECT_TRUE(paged.ok()) << paged.status().ToString();
  return std::move(paged).value();
}

/// Every observable surface of the paged reader must agree with the
/// in-memory CST it was serialized from, node by node.
void ExpectViewsAgree(const cst::Cst& memory, const cst::CstView& paged) {
  ASSERT_EQ(paged.node_count(), memory.node_count());
  EXPECT_EQ(paged.signature_count(), memory.signature_count());
  EXPECT_EQ(paged.signature_length(), memory.signature_length());
  EXPECT_EQ(paged.data_node_count(), memory.data_node_count());
  EXPECT_EQ(paged.prune_threshold(), memory.prune_threshold());
  EXPECT_EQ(paged.size_bytes(), memory.size_bytes());
  EXPECT_EQ(paged.max_value_chars(), memory.max_value_chars());
  EXPECT_EQ(paged.labels().size(), memory.labels().size());

  std::vector<suffix::ChildIndex::Entry> expected_children;
  std::vector<suffix::ChildIndex::Entry> actual_children;
  sethash::Signature scratch;
  for (cst::CstNodeId node = 0; node < memory.node_count(); ++node) {
    EXPECT_EQ(paged.GetSymbol(node), memory.GetSymbol(node));
    EXPECT_EQ(paged.Parent(node), memory.Parent(node));
    EXPECT_EQ(paged.Depth(node), memory.Depth(node));
    EXPECT_EQ(paged.StartsWithTag(node), memory.StartsWithTag(node));
    EXPECT_DOUBLE_EQ(paged.PresenceCount(node),
                     memory.PresenceCount(node));
    EXPECT_DOUBLE_EQ(paged.OccurrenceCount(node),
                     memory.OccurrenceCount(node));

    memory.CopyChildren(node, &expected_children);
    paged.CopyChildren(node, &actual_children);
    ASSERT_EQ(actual_children.size(), expected_children.size());
    for (size_t i = 0; i < expected_children.size(); ++i) {
      EXPECT_EQ(actual_children[i].symbol, expected_children[i].symbol);
      EXPECT_EQ(actual_children[i].child, expected_children[i].child);
    }

    sethash::Signature memory_scratch;
    const sethash::Signature* expected =
        memory.GetSignature(node, &memory_scratch);
    const sethash::Signature* actual = paged.GetSignature(node, &scratch);
    ASSERT_EQ(actual != nullptr, expected != nullptr);
    if (expected != nullptr) {
      EXPECT_EQ(*actual, *expected);
    }

    // Step must agree along every real edge and on a miss.
    for (const auto& entry : expected_children) {
      EXPECT_EQ(paged.Step(node, entry.symbol),
                memory.Step(node, entry.symbol));
    }
    EXPECT_EQ(paged.Step(node, cst::CstView::kUnknownSymbol),
              cst::kNoCstNode);
  }
  EXPECT_EQ(paged.storage_error_count(), 0u);
  EXPECT_TRUE(paged.storage_health().ok());
}

TEST(PagedCstTest, RoundTripMatchesInMemory) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  auto paged = OpenPaged(memory, 4096, 64 * 4096);
  ASSERT_NE(paged, nullptr);
  ExpectViewsAgree(memory, *paged);
}

TEST(PagedCstTest, TinyPoolStaysCorrectWhileEvicting) {
  data::DblpOptions gen;
  gen.target_bytes = 64 * 1024;
  const tree::Tree data = data::GenerateDblp(gen);
  const cst::Cst memory = BuildFullCst(data);
  // Two frames of 512 bytes against a store much larger than that:
  // every walk churns the pool.
  auto paged = OpenPaged(memory, 512, 2 * 512);
  ASSERT_NE(paged, nullptr);
  ExpectViewsAgree(memory, *paged);
  EXPECT_GT(paged->buffer().stats().evictions, 0u);
}

/// A store path in the test temp dir, unique to this process and `tag`
/// (sanitizer and plain suites may run side by side).
std::string TempStorePath(const std::string& tag) {
  return testing::TempDir() + "/storage_test_" + std::to_string(::getpid()) +
         "_" + tag + ".twcst03";
}

std::shared_ptr<const cst::PagedCst> OpenPagedFile(const std::string& path,
                                                   size_t pool_bytes) {
  cst::PagedCstOptions options;
  options.pool_bytes = pool_bytes;
  auto paged = cst::PagedCst::OpenFile(path, options);
  EXPECT_TRUE(paged.ok()) << paged.status().ToString();
  return paged.ok() ? std::move(paged).value() : nullptr;
}

TEST(PagedCstTest, OpenReaderKeepsItsStoreWhenThePathIsReplaced) {
  const cst::Cst a = BuildFullCst(testutil::FigureOneTree());
  const cst::Cst b = BuildFullCst(testutil::FigureTwoTree());
  auto blob_a = a.SerializePaged(512);
  auto blob_b = b.SerializePaged(512);
  ASSERT_TRUE(blob_a.ok() && blob_b.ok());
  const std::string path = TempStorePath("replaced");
  ASSERT_TRUE(storage::WriteStoreFile(path, blob_a.value()).ok());
  // Two frames: after the replacement nearly every read goes back to
  // the file, so a reader that followed the path would see B's pages.
  auto old_reader = OpenPagedFile(path, 2 * 512);
  ASSERT_NE(old_reader, nullptr);

  const Status replaced = storage::WriteStoreFile(path, blob_b.value());
  ASSERT_TRUE(replaced.ok()) << replaced.ToString();
  ExpectViewsAgree(a, *old_reader);
  auto new_reader = OpenPagedFile(path, 2 * 512);
  ASSERT_NE(new_reader, nullptr);
  ExpectViewsAgree(b, *new_reader);
  std::remove(path.c_str());
}

TEST(PagedCstTest, MaterializeRebuildsTheInMemoryCst) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  auto paged = OpenPaged(memory, 512, 64 * 512);
  ASSERT_NE(paged, nullptr);
  auto round = cst::Cst::Materialize(*paged);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  ExpectViewsAgree(round.value(), *paged);
  // The full loop — build, page out, page in, materialize, page out —
  // lands on the exact store bytes of the original.
  const auto original_store = memory.SerializePaged(512);
  const auto round_store = round.value().SerializePaged(512);
  ASSERT_TRUE(original_store.ok() && round_store.ok());
  EXPECT_TRUE(round_store.value() == original_store.value());
}

TEST(PagedCstTest, SerializePagedRejectsImpossiblePageSizes) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  // Not a power of two.
  EXPECT_EQ(memory.SerializePaged(1000).status().code(),
            StatusCode::kInvalidArgument);
  // Valid page size, but a default-length signature record cannot fit
  // the 232-byte payload of a 256-byte page.
  EXPECT_EQ(memory.SerializePaged(256).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ hostile stores

/// Recomputes and stores page `id`'s checksum after a tamper, so the
/// page itself stays "valid" and the corruption must be caught by a
/// higher layer (directory bounds, geometry, ...).
void ResealPage(std::string* blob, uint32_t id, uint32_t page_size) {
  char* page = blob->data() + static_cast<size_t>(id) * page_size;
  const uint64_t checksum = storage::PageChecksum(page, page_size);
  std::memcpy(page + 16, &checksum, sizeof(checksum));
}

std::string SerializedFigureOne(uint32_t page_size) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  auto blob = memory.SerializePaged(page_size);
  EXPECT_TRUE(blob.ok());
  return std::move(blob).value();
}

TEST(Twcst03HostileTest, TruncatedStoreFailsToOpen) {
  std::string blob = SerializedFigureOne(512);
  // Mid-page truncation: the byte count no longer matches the geometry.
  std::string truncated = blob.substr(0, blob.size() - 100);
  EXPECT_EQ(BlobPageSource::Open(truncated, "truncated").status().code(),
            StatusCode::kCorruption);
  // Whole trailing page gone: still a corruption (page_count in the
  // meta page promises more bytes than exist).
  std::string short_one = blob.substr(0, blob.size() - 512);
  EXPECT_EQ(BlobPageSource::Open(short_one, "short").status().code(),
            StatusCode::kCorruption);
  // Shorter than the geometry prefix itself.
  EXPECT_FALSE(BlobPageSource::Open(blob.substr(0, 10), "stub").ok());
  // Cut at every page boundary, down to nothing.
  for (size_t pages = 0; pages < blob.size() / 512; ++pages) {
    EXPECT_EQ(BlobPageSource::Open(blob.substr(0, pages * 512), "cut")
                  .status()
                  .code(),
              StatusCode::kCorruption)
        << "cut to " << pages << " pages";
  }
}

TEST(Twcst03HostileTest, TrailingByteFailsToOpen) {
  const std::string blob = SerializedFigureOne(512);
  const Status longer = BlobPageSource::Open(blob + "x", "longer").status();
  EXPECT_EQ(longer.code(), StatusCode::kCorruption);
  EXPECT_NE(longer.message().find("trailing bytes"), std::string::npos)
      << longer.ToString();
}

TEST(Twcst03HostileTest, BitFlipInDataPageDegradesNotCrashes) {
  std::string blob = SerializedFigureOne(512);
  // Flip one payload byte of the first kNodes page. The page's stored
  // checksum no longer matches, so pinning it must fail validation.
  uint32_t nodes_page = 0;
  for (uint32_t id = 1; id * 512 < blob.size(); ++id) {
    storage::PageHeader header;
    ASSERT_TRUE(storage::DecodePageHeader(
        blob.data() + static_cast<size_t>(id) * 512, 512, &header));
    if (header.type == PageType::kNodes) {
      nodes_page = id;
      break;
    }
  }
  ASSERT_GT(nodes_page, 0u);
  blob[static_cast<size_t>(nodes_page) * 512 + storage::kPageHeaderBytes] ^=
      0x40;

  cst::PagedCstOptions options;
  options.pool_bytes = 8 * 512;
  auto paged = cst::PagedCst::Open(OpenBlob(std::move(blob)), options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const auto& view = *paged.value();
  // Reading any node on the poisoned page degrades to a miss and is
  // recorded; it must not crash or return garbage.
  for (cst::CstNodeId node = 0; node < view.node_count(); ++node) {
    (void)view.PresenceCount(node);
    (void)view.GetSymbol(node);
  }
  EXPECT_GT(view.storage_error_count(), 0u);
  EXPECT_EQ(view.storage_health().code(), StatusCode::kCorruption);
  EXPECT_GT(view.buffer().stats().checksum_failures, 0u);
}

TEST(Twcst03HostileTest, BitFlipInMetaPageFailsOpen) {
  std::string blob = SerializedFigureOne(512);
  // Flip a byte past the geometry prefix (so the probe succeeds and
  // the checksum catches it when the meta page is pinned).
  blob[storage::kPageHeaderBytes + 60] ^= 0x01;
  cst::PagedCstOptions options;
  auto paged = cst::PagedCst::Open(OpenBlob(std::move(blob)), options);
  EXPECT_EQ(paged.status().code(), StatusCode::kCorruption);
}

TEST(Twcst03HostileTest, OutOfRangeSectionPageRejectedAtOpen) {
  std::string blob = SerializedFigureOne(512);
  // The nodes section's first_page lives at meta payload offset 68.
  // Point it far past the end of the store and re-seal the page so
  // only the directory — not the checksum — is wrong.
  const uint32_t bogus = 0x00ffffffu;
  std::memcpy(blob.data() + storage::kPageHeaderBytes + 68, &bogus, 4);
  ResealPage(&blob, 0, 512);
  cst::PagedCstOptions options;
  auto paged = cst::PagedCst::Open(OpenBlob(std::move(blob)), options);
  EXPECT_EQ(paged.status().code(), StatusCode::kCorruption);
}

/// For every node, each accessor of `paged` either agrees with
/// `memory` or records a storage error in that call: a damaged store
/// may answer less than the CST it came from, never differently.
void ExpectEachReadAgreesOrRecordsAnError(const cst::Cst& memory,
                                          const cst::CstView& paged) {
  ASSERT_EQ(paged.node_count(), memory.node_count());
  std::vector<suffix::ChildIndex::Entry> expected_children;
  std::vector<suffix::ChildIndex::Entry> actual_children;
  sethash::Signature memory_scratch;
  sethash::Signature scratch;
  for (cst::CstNodeId node = 0; node < memory.node_count(); ++node) {
    auto expect = [&](const char* accessor, auto&& agrees) {
      const uint64_t errors_before = paged.storage_error_count();
      const bool same = agrees();
      EXPECT_TRUE(same || paged.storage_error_count() > errors_before)
          << accessor << "(" << node << ") answered wrong without an error";
    };
    expect("GetSymbol",
           [&] { return paged.GetSymbol(node) == memory.GetSymbol(node); });
    expect("Parent",
           [&] { return paged.Parent(node) == memory.Parent(node); });
    expect("Depth", [&] { return paged.Depth(node) == memory.Depth(node); });
    expect("StartsWithTag", [&] {
      return paged.StartsWithTag(node) == memory.StartsWithTag(node);
    });
    expect("PresenceCount", [&] {
      return paged.PresenceCount(node) == memory.PresenceCount(node);
    });
    expect("OccurrenceCount", [&] {
      return paged.OccurrenceCount(node) == memory.OccurrenceCount(node);
    });
    memory.CopyChildren(node, &expected_children);
    expect("CopyChildren", [&] {
      paged.CopyChildren(node, &actual_children);
      if (actual_children.size() != expected_children.size()) return false;
      for (size_t i = 0; i < expected_children.size(); ++i) {
        if (actual_children[i].symbol != expected_children[i].symbol ||
            actual_children[i].child != expected_children[i].child) {
          return false;
        }
      }
      return true;
    });
    for (const auto& entry : expected_children) {
      expect("Step", [&] {
        return paged.Step(node, entry.symbol) ==
               memory.Step(node, entry.symbol);
      });
    }
    expect("GetSignature", [&] {
      const sethash::Signature* expected =
          memory.GetSignature(node, &memory_scratch);
      const sethash::Signature* actual = paged.GetSignature(node, &scratch);
      if (expected == nullptr || actual == nullptr) return expected == actual;
      return *expected == *actual;
    });
  }
}

TEST(Twcst03HostileTest, SectionPointingAtAnotherSectionsPagesIsCaught) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  std::string blob = SerializedFigureOne(512);
  // Swap the child-offsets and child-entries first_page fields (meta
  // payload offsets 84 and 100; each section fills one page) and
  // re-seal: every descriptor stays in bounds, so the store opens.
  char* directory = blob.data() + storage::kPageHeaderBytes;
  uint32_t offsets_page = 0;
  uint32_t entries_page = 0;
  std::memcpy(&offsets_page, directory + 84, 4);
  std::memcpy(&entries_page, directory + 100, 4);
  ASSERT_NE(offsets_page, entries_page);
  std::memcpy(directory + 84, &entries_page, 4);
  std::memcpy(directory + 100, &offsets_page, 4);
  ResealPage(&blob, 0, 512);
  cst::PagedCstOptions options;
  options.pool_bytes = 8 * 512;
  auto paged = cst::PagedCst::Open(OpenBlob(std::move(blob)), options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  ExpectEachReadAgreesOrRecordsAnError(memory, *paged.value());
  const Status health = paged.value()->storage_health();
  EXPECT_EQ(health.code(), StatusCode::kCorruption);
  EXPECT_NE(health.message().find(
                "page " + std::to_string(entries_page) +
                " holds child-entries records, not child-offsets"),
            std::string::npos)
      << health.ToString();
}

TEST(Twcst03HostileTest, OversizedPageCountRejectedAtOpen) {
  std::string blob = SerializedFigureOne(512);
  // Claim 1M pages in the geometry; the blob has a handful. The page
  // source must refuse the mapping instead of handing out reads past
  // the end.
  const uint32_t bogus = 1u << 20;
  std::memcpy(blob.data() + storage::kPageHeaderBytes + 16, &bogus, 4);
  ResealPage(&blob, 0, 512);
  EXPECT_EQ(BlobPageSource::Open(blob, "oversized").status().code(),
            StatusCode::kCorruption);
}

/// Field `field` (0 first_page, 1 page_count, 2 record_bytes,
/// 3 records_per_page) of section descriptor `section` (0 nodes,
/// 1 child offsets, 2 child entries, 3 signatures, 4 strings); the
/// directory starts at meta payload offset 68.
uint32_t DirectoryField(const std::string& blob, int section, int field) {
  uint32_t value = 0;
  std::memcpy(&value,
              blob.data() + storage::kPageHeaderBytes + 68 + 16 * section +
                  4 * field,
              sizeof(value));
  return value;
}

/// Figure One's 512-byte store with the u32 at byte `offset` of node
/// `node`'s 36-byte record (0 symbol, 4 parent) set to `value`, and the
/// page resealed: only the reader's record checks can catch it.
std::string WithNodeField(cst::CstNodeId node, size_t offset,
                          uint32_t value) {
  std::string blob = SerializedFigureOne(512);
  const uint32_t per_page = DirectoryField(blob, 0, 3);
  const uint32_t page = DirectoryField(blob, 0, 0) + node / per_page;
  std::memcpy(blob.data() + static_cast<size_t>(page) * 512 +
                  storage::kPageHeaderBytes + (node % per_page) * 36 +
                  offset,
              &value, sizeof(value));
  ResealPage(&blob, page, 512);
  return blob;
}

/// `node`'s record passes its page checksum but fails a record check:
/// every read of it degrades with Corruption, DescribeSubpath returns
/// for every node, and the estimate of "book", which reads the record,
/// fails closed.
void ExpectBadRecordFailsClosed(std::string blob, cst::CstNodeId node) {
  cst::PagedCstOptions options;
  options.pool_bytes = 8 * 512;
  auto paged = cst::PagedCst::Open(OpenBlob(std::move(blob)), options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const cst::PagedCst& view = *paged.value();
  sethash::Signature scratch;
  EXPECT_EQ(view.GetSymbol(node), cst::CstView::kUnknownSymbol);
  EXPECT_EQ(view.Parent(node), cst::kNoCstNode);
  EXPECT_EQ(view.PresenceCount(node), 0.0);
  EXPECT_EQ(view.GetSignature(node, &scratch), nullptr);
  const Status health = view.storage_health();
  EXPECT_EQ(health.code(), StatusCode::kCorruption);
  EXPECT_NE(health.message().find("node " + std::to_string(node) + ": "),
            std::string::npos)
      << health.ToString();
  for (cst::CstNodeId n = 0; n < view.node_count(); ++n) {
    (void)view.DescribeSubpath(n);
  }
  serve::HealthMonitor monitor;
  const Result<double> estimate = serve::TryEstimateFailClosed(
      view, query::ParseTwig("book").value(), core::Algorithm::kMsh, {},
      &monitor);
  EXPECT_EQ(estimate.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(monitor.Report().state, serve::HealthState::kDegraded);
}

TEST(Twcst03HostileTest, RecordsFailingAReadCheckFailClosed) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  const cst::CstNodeId book =
      memory.Step(memory.root(), memory.TagSymbolFor("book"));
  ASSERT_NE(book, cst::kNoCstNode);
  {
    SCOPED_TRACE("symbol above kMaxSymbol");
    ExpectBadRecordFailsClosed(
        WithNodeField(book, 0, suffix::kMaxSymbol + 1), book);
  }
  {
    SCOPED_TRACE("tag without a label");
    const suffix::Symbol unlabeled = suffix::TagSymbol(
        static_cast<tree::LabelId>(memory.labels().size()));
    ExpectBadRecordFailsClosed(WithNodeField(book, 0, unlabeled), book);
  }
  {
    // A node that is its own parent sends a parent walk round forever.
    SCOPED_TRACE("parent equal to its own id");
    ExpectBadRecordFailsClosed(WithNodeField(book, 4, book), book);
  }
}

TEST(Twcst03HostileTest, DuplicateLabelNamesFailOpen) {
  // Interning would collapse the duplicate and shift every later
  // LabelId, attaching counts to the wrong tags.
  std::string blob = SerializedFigureOne(512);
  const uint32_t strings = DirectoryField(blob, 4, 0);
  ASSERT_EQ(DirectoryField(blob, 4, 1), 1u);
  const size_t page = static_cast<size_t>(strings) * 512;
  const size_t year = blob.find("year", page);
  ASSERT_LT(year, page + 512);
  blob.replace(year, 4, "book");
  ResealPage(&blob, strings, 512);
  auto paged = cst::PagedCst::Open(OpenBlob(std::move(blob)));
  EXPECT_EQ(paged.status().code(), StatusCode::kCorruption);
  EXPECT_NE(paged.status().message().find("duplicate label name"),
            std::string::npos)
      << paged.status().ToString();
}

TEST(Twcst03HostileTest, StampSweepOverEveryPageNeverCrashes) {
  // 0xFF over every 4-byte window of every page, the page resealed each
  // time so the decoders, not the checksum, see the bad bytes. Whatever
  // the stamp hits, the store fails to open, or every read, every
  // subpath rendering and an estimate return (bounds hold under ASan).
  const std::string blob = SerializedFigureOne(512);
  const query::Twig twig = query::ParseTwig("book(author, year)").value();
  cst::PagedCstOptions options;
  options.pool_bytes = 8 * 512;
  std::vector<suffix::ChildIndex::Entry> children;
  sethash::Signature scratch;
  size_t opened = 0;
  for (uint32_t page = 0; page < blob.size() / 512; ++page) {
    for (size_t off = 0; off + 4 <= 512; ++off) {
      std::string stamped = blob;
      std::memset(stamped.data() + static_cast<size_t>(page) * 512 + off,
                  0xff, 4);
      ResealPage(&stamped, page, 512);
      auto source = BlobPageSource::Open(std::move(stamped), "stamped");
      if (!source.ok()) continue;
      auto paged = cst::PagedCst::Open(
          std::shared_ptr<const storage::PageSource>(
              std::move(source).value()),
          options);
      if (!paged.ok()) continue;
      ++opened;
      const cst::PagedCst& view = *paged.value();
      for (cst::CstNodeId n = 0; n < view.node_count(); ++n) {
        (void)view.GetSymbol(n);
        (void)view.Parent(n);
        (void)view.Depth(n);
        (void)view.StartsWithTag(n);
        (void)view.PresenceCount(n);
        (void)view.OccurrenceCount(n);
        (void)view.GetSignature(n, &scratch);
        view.CopyChildren(n, &children);
        for (const auto& entry : children) (void)view.Step(n, entry.symbol);
        (void)view.DescribeSubpath(n);
      }
      (void)core::TwigEstimator(&view).TryEstimate(twig,
                                                   core::Algorithm::kMsh);
    }
  }
  EXPECT_GT(opened, 0u);
}

// --------------------------------------------------------- store files

TEST(StorageFileTest, TruncatedUnderAnOpenReaderFailsItsPins) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  const std::string blob = SerializedFigureOne(512);
  const std::string path = TempStorePath("truncated");
  ASSERT_TRUE(storage::WriteStoreFile(path, blob).ok());
  auto paged = OpenPagedFile(path, 2 * 512);
  ASSERT_NE(paged, nullptr);
  // Cut the file mid-page, halfway through the store, in place: the
  // reader's descriptor now sees a shorter file.
  const size_t pages = blob.size() / 512;
  ASSERT_GT(pages, 8u);
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>((pages / 2) * 512 + 100)),
            0);

  ExpectEachReadAgreesOrRecordsAnError(memory, *paged);
  const Status health = paged->storage_health();
  EXPECT_EQ(health.code(), StatusCode::kCorruption);
  EXPECT_NE(health.message().find(path + ": page "), std::string::npos)
      << health.ToString();
  EXPECT_NE(health.message().find(": store truncated"), std::string::npos)
      << health.ToString();
  EXPECT_FALSE(cst::Cst::Materialize(*paged).ok());
  std::remove(path.c_str());
}

TEST(StorageFileTest, OpenRejectsWhatIsNotAStore) {
  using storage::FilePageSource;
  auto reason = [](const std::string& path) {
    return FilePageSource::Open(path).status();
  };
  const std::string path = TempStorePath("not_a_store");

  const Status directory = reason(testing::TempDir());
  EXPECT_EQ(directory.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(directory.message().find(std::strerror(EISDIR)),
            std::string::npos)
      << directory.ToString();

  ASSERT_TRUE(storage::WriteStoreFile(path, "").ok());
  const Status empty = reason(path);
  EXPECT_EQ(empty.code(), StatusCode::kCorruption);
  EXPECT_NE(empty.message().find("empty store file"), std::string::npos)
      << empty.ToString();

  const std::string blob = SerializedFigureOne(512);
  ASSERT_TRUE(
      storage::WriteStoreFile(path, blob.substr(0, blob.size() - 512)).ok());
  const Status short_store = reason(path);
  EXPECT_EQ(short_store.code(), StatusCode::kCorruption);
  EXPECT_NE(short_store.message().find("store truncated"), std::string::npos)
      << short_store.ToString();

  ASSERT_TRUE(storage::WriteStoreFile(path, blob.substr(0, 30)).ok());
  const Status stub = reason(path);
  EXPECT_EQ(stub.code(), StatusCode::kCorruption);
  EXPECT_NE(stub.message().find("truncated before meta fields"),
            std::string::npos)
      << stub.ToString();

  // A summary in the retired whole-blob format: its magic, then bytes.
  std::string whole_blob("TWCST02\0", 8);
  whole_blob.append(1024, '\x01');
  ASSERT_TRUE(storage::WriteStoreFile(path, whole_blob).ok());
  const Status old_format = reason(path);
  EXPECT_EQ(old_format.code(), StatusCode::kCorruption);
  EXPECT_NE(old_format.message().find(path + ": not a TWCST03 store"),
            std::string::npos)
      << old_format.ToString();
  std::remove(path.c_str());

  const Status missing = reason(path);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_NE(missing.message().find(std::strerror(ENOENT)), std::string::npos)
      << missing.ToString();
}

size_t OpenDescriptorCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(StorageFileTest, OpenCloseCyclesLeakNoDescriptors) {
  const std::string blob = SerializedFigureOne(512);
  const std::string path = TempStorePath("cycles");
  const std::string short_path = TempStorePath("cycles_short");
  ASSERT_TRUE(storage::WriteStoreFile(path, blob).ok());
  ASSERT_TRUE(
      storage::WriteStoreFile(short_path, blob.substr(0, blob.size() - 512))
          .ok());
  const size_t before = OpenDescriptorCount();
  for (int cycle = 0; cycle < 200; ++cycle) {
    auto paged = OpenPagedFile(path, 2 * 512);
    ASSERT_NE(paged, nullptr);
    (void)paged->PresenceCount(1);
    EXPECT_EQ(paged->storage_error_count(), 0u);
    // A store refused after its open must close the descriptor too.
    EXPECT_FALSE(storage::FilePageSource::Open(short_path).ok());
  }
  EXPECT_EQ(OpenDescriptorCount(), before);
  std::remove(path.c_str());
  std::remove(short_path.c_str());
}

// --------------------------------------------------------- failpoints

class StorageFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FailpointRegistry::Get().Reset(); }
  void TearDown() override { util::FailpointRegistry::Get().Reset(); }
};

TEST_F(StorageFailpointTest, ReadErrorSurfacesAndRecovers) {
  BufferManager pool(8 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(2)));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(util::FailpointRegistry::Get()
                  .Configure("storage/read", "error")
                  .ok());
  auto failed = pool.Pin(id.value(), 1);
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  // Failed loads are not cached: once the failpoint clears, the same
  // pin succeeds.
  util::FailpointRegistry::Get().Reset();
  auto pin = pool.Pin(id.value(), 1);
  EXPECT_TRUE(pin.ok()) << pin.status().ToString();
  EXPECT_EQ(pin.value().payload()[0], 'a');
}

TEST_F(StorageFailpointTest, ChecksumErrorCountsAndRecovers) {
  BufferManager pool(8 * kPage, kPage);
  auto id = pool.RegisterSource(OpenBlob(MakeRawStore(2)));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(util::FailpointRegistry::Get()
                  .Configure("storage/checksum", "error")
                  .ok());
  auto failed = pool.Pin(id.value(), 1);
  EXPECT_EQ(failed.status().code(), StatusCode::kCorruption);
  EXPECT_NE(std::string(failed.status().message())
                .find("checksum mismatch (injected)"),
            std::string::npos);
  EXPECT_GE(pool.stats().checksum_failures, 1u);
  util::FailpointRegistry::Get().Reset();
  EXPECT_TRUE(pool.Pin(id.value(), 1).ok());
}

TEST_F(StorageFailpointTest, PagedCstDegradesUnderInjectedChecksums) {
  const cst::Cst memory = BuildFullCst(testutil::FigureOneTree());
  // A 2-frame pool so post-arm accesses miss (hits would bypass the
  // load path where the failpoint lives).
  auto paged = OpenPaged(memory, 512, 2 * 512);
  ASSERT_NE(paged, nullptr);
  ASSERT_TRUE(util::FailpointRegistry::Get()
                  .Configure("storage/checksum", "error")
                  .ok());
  EXPECT_EQ(paged->PresenceCount(1), 0.0);  // degraded to a miss
  EXPECT_GT(paged->storage_error_count(), 0u);
  EXPECT_EQ(paged->storage_health().code(), StatusCode::kCorruption);
  // Disarm: reads work again; the sticky first error remains visible.
  util::FailpointRegistry::Get().Reset();
  EXPECT_EQ(paged->PresenceCount(1), memory.PresenceCount(1));
  EXPECT_EQ(paged->storage_health().code(), StatusCode::kCorruption);
}

TEST_F(StorageFailpointTest, DescribeSubpathSurvivesFailedReads) {
  // A failed read answers depth 0 and no parent, so a rendering sized
  // by Depth() and indexed by Depth() - 1 would underflow; the parent
  // walk renders what it can read.
  data::DblpOptions gen;
  gen.target_bytes = 64 * 1024;
  const cst::Cst memory = BuildFullCst(data::GenerateDblp(gen));
  cst::CstNodeId deepest = 0;
  for (cst::CstNodeId node = 0; node < memory.node_count(); ++node) {
    if (memory.Depth(node) > memory.Depth(deepest)) deepest = node;
  }
  ASSERT_GT(memory.Depth(deepest), 2u);
  for (const char* failpoint : {"storage/read", "storage/checksum"}) {
    SCOPED_TRACE(failpoint);
    // A fresh 2-frame pool holds no node page, so the first read fails.
    auto paged = OpenPaged(memory, 512, 2 * 512);
    ASSERT_NE(paged, nullptr);
    ASSERT_TRUE(
        util::FailpointRegistry::Get().Configure(failpoint, "error").ok());
    const uint64_t errors_before = paged->storage_error_count();
    EXPECT_EQ(paged->DescribeSubpath(deepest), "");
    EXPECT_GT(paged->storage_error_count(), errors_before);
    util::FailpointRegistry::Get().Reset();
    EXPECT_EQ(paged->DescribeSubpath(deepest),
              memory.DescribeSubpath(deepest));
  }
}

}  // namespace
}  // namespace twig
