// twig_convert: converts serialized CSTs between the whole-blob
// TWCST02 format and the paged TWCST03 store format (DESIGN.md §15),
// sniffing the input format from its magic prefix.
//
//   ./twig_convert --in=cst.twcst02 --out=cst.twcst03
//   ./twig_convert --in=cst.twcst03 --out=cst.twcst02 --to=twcst02
//   ./twig_convert --in=store.twcst03 --info   # print header, no output
//
// Conversion is lossless in both directions: the paged store carries
// exactly the fields of the whole-blob format, re-arranged into
// checksummed pages.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

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
  std::string to = "twcst03";
  size_t page_bytes = storage::kDefaultPageBytes;
  bool info = false;
};

constexpr char kUsage[] =
    "usage: twig_convert --in=FILE [--out=FILE] [--to=FMT]\n"
    "                    [--page-bytes=N] [--info]\n"
    "  --in=FILE        serialized CST to read (TWCST02 or TWCST03;\n"
    "                   the format is sniffed from the magic prefix)\n"
    "  --out=FILE       where to write the converted CST\n"
    "  --to=FMT         output format: twcst02 | twcst03 (default\n"
    "                   twcst03)\n"
    "  --page-bytes=N   page size for twcst03 output (default 65536)\n"
    "  --info           print the input's format and summary stats and\n"
    "                   exit (no --out needed)\n";

const char* FormatName(cst::CstFormat format) {
  switch (format) {
    case cst::CstFormat::kTwcst02:
      return "TWCST02 (whole-blob)";
    case cst::CstFormat::kTwcst03:
      return "TWCST03 (paged)";
    case cst::CstFormat::kUnknown:
      break;
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  util::FlagParser flags("twig_convert", kUsage);
  flags.String("in", &options.in_path);
  flags.String("out", &options.out_path);
  flags.String("to", &options.to);
  flags.Size("page-bytes", &options.page_bytes);
  flags.Bool("info", &options.info);
  if (int code = flags.Parse(argc, argv); code >= 0) return code;
  if (options.in_path.empty()) {
    std::fprintf(stderr, "twig_convert: --in is required\n%s", kUsage);
    return 2;
  }
  if (options.to != "twcst02" && options.to != "twcst03") {
    std::fprintf(stderr, "twig_convert: --to must be twcst02 or twcst03\n");
    return 2;
  }
  if (!options.info && options.out_path.empty()) {
    std::fprintf(stderr, "twig_convert: --out is required (or --info)\n");
    return 2;
  }

  std::ifstream in(options.in_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "twig_convert: cannot open %s\n",
                 options.in_path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = std::move(buffer).str();

  const cst::CstFormat format = cst::SniffCstFormat(bytes);
  if (format == cst::CstFormat::kUnknown) {
    std::fprintf(stderr,
                 "twig_convert: %s is neither TWCST02 nor TWCST03\n",
                 options.in_path.c_str());
    return 1;
  }

  // Materialize through the format-agnostic loader: TWCST02
  // deserializes, TWCST03 pages in (and is fully walked below only if
  // we re-serialize to TWCST02).
  auto view = cst::LoadCstBlob(std::move(bytes), options.in_path);
  if (!view.ok()) {
    std::fprintf(stderr, "twig_convert: %s\n",
                 view.status().ToString().c_str());
    return 1;
  }

  if (options.info) {
    std::printf("%s: %s\n", options.in_path.c_str(), FormatName(format));
    std::printf("  nodes       %zu\n", view.value()->node_count());
    std::printf("  signatures  %zu x %zu hashes\n",
                view.value()->signature_count(),
                view.value()->signature_length());
    std::printf("  labels      %zu\n", view.value()->labels().size());
    std::printf("  data nodes  %llu\n",
                static_cast<unsigned long long>(
                    view.value()->data_node_count()));
    std::printf("  size        %s\n",
                HumanBytes(view.value()->size_bytes()).c_str());
    return 0;
  }

  // Re-serialization needs a materialized Cst; a paged input is walked
  // into one first (identical fields, so the round trip is lossless).
  Result<cst::Cst> memory = cst::Cst::Materialize(*view.value());
  if (!memory.ok()) {
    std::fprintf(stderr, "twig_convert: %s\n",
                 memory.status().ToString().c_str());
    return 1;
  }
  std::string out_bytes;
  if (options.to == "twcst02") {
    out_bytes = memory.value().Serialize();
  } else {
    Result<std::string> paged =
        memory.value().SerializePaged(options.page_bytes);
    if (!paged.ok()) {
      std::fprintf(stderr, "twig_convert: %s\n",
                   paged.status().ToString().c_str());
      return 1;
    }
    out_bytes = std::move(paged).value();
  }

  // Replaced by rename: a server reading --out keeps its open store.
  if (Status written = storage::WriteStoreFile(options.out_path, out_bytes);
      !written.ok()) {
    std::fprintf(stderr, "twig_convert: cannot write %s: %s\n",
                 options.out_path.c_str(), written.message().c_str());
    return 1;
  }
  std::printf("%s (%s) -> %s (%s, %s)\n", options.in_path.c_str(),
              FormatName(format), options.out_path.c_str(),
              options.to.c_str(), HumanBytes(out_bytes.size()).c_str());
  return 0;
}
