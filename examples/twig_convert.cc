// twig_convert: inspects and re-pages TWCST03 CST stores (DESIGN.md
// §15), the summary's only serialized format.
//
//   ./twig_convert --in=store.twcst03 --info   # print header, no output
//   ./twig_convert --in=store.twcst03 --out=4k.twcst03 --page-bytes=4096
//
// Re-paging reads the input through a paged reader, materializes it,
// and writes it again at --page-bytes. Every field survives, so paging
// back to the input's page size reproduces the input byte for byte.

#include <cstdio>
#include <memory>
#include <string>

#include "cst/cst.h"
#include "cst/paged_cst.h"
#include "storage/page.h"
#include "storage/page_writer.h"
#include "util/flags.h"
#include "util/strings.h"

namespace {

using namespace twig;

struct Options {
  std::string in_path;
  std::string out_path;
  size_t page_bytes = storage::kDefaultPageBytes;
  bool info = false;
};

constexpr char kUsage[] =
    "usage: twig_convert --in=FILE [--out=FILE] [--page-bytes=N] [--info]\n"
    "  --in=FILE        TWCST03 store to read\n"
    "  --out=FILE       where to write the store re-paged at --page-bytes\n"
    "  --page-bytes=N   page size of the output store (default 65536)\n"
    "  --info           print the input's page size and summary stats and\n"
    "                   exit (no --out needed)\n";

}  // namespace

int main(int argc, char** argv) {
  Options options;
  util::FlagParser flags("twig_convert", kUsage);
  flags.String("in", &options.in_path);
  flags.String("out", &options.out_path);
  flags.Size("page-bytes", &options.page_bytes);
  flags.Bool("info", &options.info);
  if (int code = flags.Parse(argc, argv); code >= 0) return code;
  if (!storage::ValidPageSize(options.page_bytes)) {
    std::fprintf(stderr,
                 "twig_convert: --page-bytes must be a power of two in "
                 "[%zu, %zu]\n",
                 static_cast<size_t>(storage::kMinPageBytes),
                 static_cast<size_t>(storage::kMaxPageBytes));
    return 2;
  }
  if (options.in_path.empty()) {
    std::fprintf(stderr, "twig_convert: --in is required\n%s", kUsage);
    return 2;
  }
  if (!options.info && options.out_path.empty()) {
    std::fprintf(stderr, "twig_convert: --out is required (or --info)\n");
    return 2;
  }

  Result<std::shared_ptr<cst::PagedCst>> opened =
      cst::PagedCst::OpenFile(options.in_path);
  if (!opened.ok()) {
    std::fprintf(stderr, "twig_convert: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  const cst::PagedCst& view = *opened.value();
  const unsigned in_page_bytes = view.buffer().page_size();

  if (options.info) {
    std::printf("%s: TWCST03 store, %u-byte pages\n",
                options.in_path.c_str(), in_page_bytes);
    std::printf("  nodes       %zu\n", view.node_count());
    std::printf("  signatures  %zu x %zu hashes\n", view.signature_count(),
                view.signature_length());
    std::printf("  labels      %zu\n", view.labels().size());
    std::printf("  data nodes  %llu\n",
                static_cast<unsigned long long>(view.data_node_count()));
    std::printf("  size        %s\n", HumanBytes(view.size_bytes()).c_str());
    return 0;
  }

  // Materialize refuses a store whose reads degraded mid-walk, so a
  // damaged input never becomes a clean-looking output.
  Result<cst::Cst> memory = cst::Cst::Materialize(view);
  if (!memory.ok()) {
    std::fprintf(stderr, "twig_convert: %s\n",
                 memory.status().ToString().c_str());
    return 1;
  }
  Result<std::string> paged = memory.value().SerializePaged(options.page_bytes);
  if (!paged.ok()) {
    std::fprintf(stderr, "twig_convert: %s\n",
                 paged.status().ToString().c_str());
    return 1;
  }

  // Replaced by rename: a server reading --out keeps its open store.
  if (Status written = storage::WriteStoreFile(options.out_path, paged.value());
      !written.ok()) {
    std::fprintf(stderr, "twig_convert: cannot write %s: %s\n",
                 options.out_path.c_str(), written.message().c_str());
    return 1;
  }
  std::printf("%s (%u-byte pages) -> %s (%zu-byte pages, %s)\n",
              options.in_path.c_str(), in_page_bytes,
              options.out_path.c_str(), options.page_bytes,
              HumanBytes(paged.value().size()).c_str());
  return 0;
}
