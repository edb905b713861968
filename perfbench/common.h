// Shared pieces of the benchmark: workload definitions, seeded inputs,
// the reference answers every reply is checked against, percentile
// selection, spans, and the result line.
//
// Everything a run feeds the server derives from its seed, so the
// same seed gives the same XML, store, twigs, Zipf draws and
// spellings. See README.md in this directory for the metric map.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cst/view.h"
#include "query/twig.h"
#include "tree/tree.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

using twig::Result;
using twig::Status;

// -- Workloads ---------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  /// Serve a TWCST03 store of the unpruned CST instead of the XML.
  bool paged;
  /// twig_serve --cache-entries; 0 = cache off (the server default).
  size_t cache_entries;
  /// Zipf draws over positive twigs, each request respelled with a
  /// random sibling order; otherwise distinct twigs cycled in order.
  bool zipf_spellings;
  /// Swap the snapshot every kSwapEverySeconds of timed load.
  bool swaps_under_load;
};

inline constexpr WorkloadSpec kWorkloads[] = {
    {"mem_mix", false, 0, false, false},
    {"paged_evict", true, 0, false, false},
    {"cached_zipf_swap", false, 4096, true, true},
};

const WorkloadSpec* FindWorkload(std::string_view name);

/// Input sizes shared by every workload.
inline constexpr size_t kXmlBytes = 8u << 20;
/// CST space fraction the in-memory workloads serve (twig_serve's
/// default) and the one the paged store is built at (unpruned).
inline constexpr double kServeSpace = 0.01;
inline constexpr double kStoreSpace = 1.0;
inline constexpr size_t kPageBytes = 64u << 10;
inline constexpr double kBufferMb = 4;
/// mem_mix / paged_evict: distinct twigs, and the share generated
/// with wildcard / descendant axes.
inline constexpr size_t kMixTwigs = 1000;
inline constexpr double kAxesShare = 0.25;
/// cached_zipf_swap: distinct positive twigs, Zipf exponent, and the
/// length of the seeded request stream the client cycles through.
inline constexpr size_t kZipfTwigs = 2000;
inline constexpr double kZipfTheta = 1.1;
inline constexpr size_t kZipfStream = 1u << 17;
inline constexpr double kSwapEverySeconds = 2.0;
/// Distinct twigs whose exact counts give est_rel_err.
inline constexpr size_t kAccuracySample = 384;

/// Derives an independent stream seed for one purpose of a run.
uint64_t SubSeed(uint64_t seed, std::string_view purpose);

// -- Inputs ------------------------------------------------------------

enum class QueryClass : uint8_t { kPositive, kAxes };

/// The requests of one workload. Distinct twigs, the distinct texts
/// ("spellings") the client sends for them, and the request stream as
/// spelling indices.
struct Inputs {
  std::vector<twig::query::Twig> twigs;
  std::vector<QueryClass> twig_class;
  std::vector<std::string> spellings;
  std::vector<uint32_t> spelling_twig;
  std::vector<uint32_t> stream;
  /// Generated twigs dropped because the reference estimator rejects
  /// them (so no request of the run is expected to fail).
  size_t dropped = 0;
};

/// The generated document a run serves: the XML text and the tree the
/// server parses from it (the reference answers need the same tree).
struct Document {
  std::string xml;
  twig::tree::Tree data;
};

Document MakeDocument(uint64_t seed);

/// Builds the workload's requests from the served tree. `reference`
/// is the summary the server answers from; twigs it cannot estimate
/// are dropped.
Inputs MakeInputs(const WorkloadSpec& spec, const twig::tree::Tree& data,
                  uint64_t seed, const twig::cst::CstView& reference);

/// The twig with every node's children sorted by their canonical text,
/// recursively: one text per unordered twig.
std::string CanonicalText(const twig::query::Twig& twig);

/// The same unordered twig with each node's children in a random order.
twig::query::Twig Respell(const twig::query::Twig& twig, twig::Rng& rng);

/// True when some node has two children whose subtrees differ, so a
/// sibling permutation changes the spelling.
bool HasReorderableSiblings(const twig::query::Twig& twig);

/// The wire text of an estimate, exactly as the server renders a
/// double (%.17g), so equal text means equal bits.
std::string EstimateText(double estimate);

/// Reference estimate (MSH, occurrence) of the parsed form of `text`.
Result<double> ReferenceEstimate(const twig::cst::CstView& view,
                                 std::string_view text);

/// The raw text of a top-level scalar member ("key":VALUE) of a reply
/// line, or empty when absent. Scans rather than parses: the client
/// reads every reply, and must stay cheap next to the server.
std::string_view ReplyField(std::string_view line, std::string_view key);
double ReplyNumber(std::string_view line, std::string_view key);

/// Checks one reply's estimate text against the reference text.
/// Returns OK or a message naming the twig and both values.
Status CheckAnswer(std::string_view twig_text, std::string_view expected,
                   std::string_view served);

// -- Statistics --------------------------------------------------------

/// Nearest-rank quantile q of `sorted` (ascending), or nullopt unless
/// at least `min_beyond` samples lie above the selected one.
std::optional<double> Quantile(const std::vector<double>& sorted, double q,
                               size_t min_beyond = 10);

/// Median of a non-empty sample.
double Median(std::vector<double> values);

// -- Spans ---------------------------------------------------------------

/// One timed interval. `parent` indexes the log (-1 = root); spans of
/// one request share `request`.
struct Span {
  const char* name;
  uint64_t request;
  int32_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  int32_t Add(const char* name, uint64_t request, int32_t parent,
              int64_t start_ns, int64_t end_ns);
  /// Sets a span's interval once its children are known.
  void SetTimes(int32_t span, int64_t start_ns, int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

  /// Each span's duration minus the part of it its children cover.
  std::vector<int64_t> SelfTimes() const;

  /// Sums self time by span name.
  std::map<std::string, int64_t> SelfTimeByName() const;

  /// Writes the spans as a JSON array.
  Status WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Monotonic nanoseconds.
int64_t NowNs();

// -- Results -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
  /// False for metrics the report prints but the result line leaves
  /// out, because BENCHMARK.json sets them no bound.
  bool bounded = true;
};

/// Prints one "metric" report line per metric and, last, the result
/// line {"correct":..,"attempted":..,"failed":..,"metrics":{...}} with
/// the bounded ones.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

/// Parses --name=value / --name value pairs into a map; returns false
/// on a stray argument.
bool ParseArgs(int argc, char** argv, std::map<std::string, std::string>* out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
