// perfbench_layers: the traced run's in-process replay.
//
//   perfbench_layers --workload=mem_mix --seed=1 --work=DIR --out=DIR
//
// Reads the run's data.xml (and, for paged_evict, store.twcst03) from
// --work, rebuilds the workload's requests from the seed exactly as the
// load generator does, and times each layer's public functions on the
// workload's own view (the in-memory Cst, or a PagedCst with the 4 MiB
// pool the server uses):
//
//   serve::ParseRequest → query::ParseTwig → core::ExpandQuery →
//   core::ParseQuery → core::MshDecompose → Combiner::MoCombine →
//   serve::EstimateWireResponse
//
// plus TwigEstimator::TryEstimate, EstimateService::Submit (the queue
// hand-off), match::CountTwigMatches and the set-up calls. Every call is
// a span (name, start, end, parent, request id) kept in memory and
// written to --out at the end.
//
// Trace equivalence: for every replayed twig, the staged calls — and the
// same calls through a CstView that counts accessor calls — must give
// TryEstimate's answer bit for bit, on the in-memory CST and on a paged
// reader of the same CST. Otherwise the breakdown would describe a
// different program, and the run exits 1 naming the twig.
//
// Results go to --work/layers.json as {"name":{"value","unit","samples"}}.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/combine.h"
#include "core/estimator.h"
#include "core/expanded_query.h"
#include "core/parse.h"
#include "core/pieces.h"
#include "cst/cst.h"
#include "cst/paged_cst.h"
#include "match/matcher.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "suffix/path_suffix_tree.h"
#include "xml/xml.h"

namespace perfbench {
namespace {

using twig::cst::CstNodeId;
using twig::cst::CstView;
namespace core = twig::core;

/// Requests replayed per pass, and distinct twigs timed exactly.
constexpr size_t kReplay = 4000;
constexpr size_t kHandoffRequests = 2000;
constexpr size_t kExactTwigs = 16;

/// Forwards every accessor to another view and counts the calls.
class CountingView final : public CstView {
 public:
  explicit CountingView(const CstView* inner) : inner_(inner) {}
  uint64_t calls() const { return calls_; }

  CstNodeId Step(CstNodeId node, twig::suffix::Symbol symbol) const override {
    ++calls_;
    return inner_->Step(node, symbol);
  }
  Match LongestMatch(std::span<const twig::suffix::Symbol> symbols,
                     size_t start) const override {
    ++calls_;
    return inner_->LongestMatch(symbols, start);
  }
  size_t CopyChildren(CstNodeId node,
                      std::vector<twig::suffix::ChildIndex::Entry>* out) const override {
    ++calls_;
    return inner_->CopyChildren(node, out);
  }
  double PresenceCount(CstNodeId node) const override {
    ++calls_;
    return inner_->PresenceCount(node);
  }
  double OccurrenceCount(CstNodeId node) const override {
    ++calls_;
    return inner_->OccurrenceCount(node);
  }
  bool StartsWithTag(CstNodeId node) const override {
    ++calls_;
    return inner_->StartsWithTag(node);
  }
  const twig::sethash::Signature* GetSignature(
      CstNodeId node, twig::sethash::Signature* scratch) const override {
    ++calls_;
    return inner_->GetSignature(node, scratch);
  }
  uint32_t Depth(CstNodeId node) const override {
    ++calls_;
    return inner_->Depth(node);
  }
  twig::suffix::Symbol GetSymbol(CstNodeId node) const override {
    ++calls_;
    return inner_->GetSymbol(node);
  }
  CstNodeId Parent(CstNodeId node) const override {
    ++calls_;
    return inner_->Parent(node);
  }
  uint64_t data_node_count() const override {
    ++calls_;
    return inner_->data_node_count();
  }
  uint32_t prune_threshold() const override {
    ++calls_;
    return inner_->prune_threshold();
  }
  size_t size_bytes() const override {
    ++calls_;
    return inner_->size_bytes();
  }
  size_t node_count() const override {
    ++calls_;
    return inner_->node_count();
  }
  size_t signature_count() const override {
    ++calls_;
    return inner_->signature_count();
  }
  size_t signature_length() const override {
    ++calls_;
    return inner_->signature_length();
  }
  size_t max_value_chars() const override {
    ++calls_;
    return inner_->max_value_chars();
  }
  Status storage_health() const override {
    ++calls_;
    return inner_->storage_health();
  }
  uint64_t storage_error_count() const override {
    ++calls_;
    return inner_->storage_error_count();
  }
  const twig::tree::LabelTable& labels() const override {
    ++calls_;
    return inner_->labels();
  }

 private:
  const CstView* inner_;
  mutable uint64_t calls_ = 0;
};

/// Per-call durations of the estimator's stages, in ns.
struct StageTimes {
  std::vector<double> expand, parse, decompose, combine;
};

/// TryEstimate(MSH, occurrence) spelled out stage by stage, in its
/// order. With `times`, each stage is timed and logged as a span.
Result<double> Staged(const twig::query::Twig& twig, const CstView& view, StageTimes* times,
                      SpanLog* spans, uint64_t request, int32_t parent) {
  const int64_t t0 = NowNs();
  const core::ExpandedQuery eq = core::ExpandQuery(twig, view);
  const int64_t t1 = NowNs();
  if (eq.atoms.empty()) return Status::InvalidArgument("cannot estimate an empty twig");
  core::Combiner combiner(eq, view, core::CombineOptions{});
  const int64_t t2 = NowNs();
  const std::vector<core::ParsedPiece> parsed =
      core::ParseQuery(eq, view, core::ParseStrategy::kMaximal);
  const int64_t t3 = NowNs();
  std::vector<core::EstimandPiece> pieces = core::MshDecompose(eq, parsed);
  const int64_t t4 = NowNs();
  const double estimate = combiner.MoCombine(std::move(pieces));
  const int64_t t5 = NowNs();
  if (!combiner.status().ok()) return combiner.status();
  if (times != nullptr) {
    times->expand.push_back(static_cast<double>(t1 - t0));
    times->combine.push_back(static_cast<double>((t2 - t1) + (t5 - t4)));
    times->parse.push_back(static_cast<double>(t3 - t2));
    times->decompose.push_back(static_cast<double>(t4 - t3));
    spans->Add("core.expand", request, parent, t0, t1);
    spans->Add("core.combine", request, parent, t1, t2);
    spans->Add("core.parse", request, parent, t2, t3);
    spans->Add("core.decompose", request, parent, t3, t4);
    spans->Add("core.combine", request, parent, t4, t5);
  }
  return estimate;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

class Results {
 public:
  void Add(const std::string& name, double value, const char* unit, size_t samples) {
    twig::obs::JsonWriter writer;
    writer.BeginObject();
    writer.Key("value");
    writer.Double(value);
    writer.Key("unit");
    writer.String(unit);
    writer.Key("samples");
    writer.Uint(samples);
    writer.EndObject();
    entries_.emplace_back(name, std::move(writer).str());
  }
  /// Median of ns durations, in us.
  void AddMedianUs(const std::string& name, const std::vector<double>& ns) {
    Add(name, Median(ns) / 1000.0, "us", ns.size());
  }
  Status Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out << (i == 0 ? "" : ",") << "\"" << entries_[i].first << "\":" << entries_[i].second;
    }
    out << "}\n";
    out.flush();
    return out ? Status::OK() : Status::Internal("cannot write " + path);
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "perfbench_layers: %s\n", status.ToString().c_str());
  return 1;
}

double Seconds(int64_t from, int64_t to) { return static_cast<double>(to - from) / 1e9; }

int Run(const WorkloadSpec& spec, uint64_t seed, const std::string& work, const std::string& out) {
  SpanLog spans;
  Results results;

  // Set-up calls, each timed once as the server (or the store path)
  // runs them.
  std::ifstream xml_in(work + "/data.xml");
  std::stringstream xml_text;
  xml_text << xml_in.rdbuf();
  int64_t t0 = NowNs();
  Result<twig::tree::Tree> parsed_xml = twig::xml::ParseXml(xml_text.str());
  int64_t t1 = NowNs();
  if (!parsed_xml.ok()) return Fail(parsed_xml.status());
  const auto data = std::make_shared<const twig::tree::Tree>(std::move(parsed_xml).value());
  spans.Add("xml.parse", 0, -1, t0, t1);
  results.Add("xml.parse_s", Seconds(t0, t1), "s", 1);

  t0 = NowNs();
  const auto pst = twig::suffix::PathSuffixTree::Build(*data);
  t1 = NowNs();
  spans.Add("suffix.build", 0, -1, t0, t1);
  results.Add("suffix.build_s", Seconds(t0, t1), "s", 1);

  twig::cst::CstOptions copt;
  copt.space_budget_bytes = static_cast<size_t>((spec.paged ? kStoreSpace : kServeSpace) *
                                                static_cast<double>(twig::xml::XmlByteSize(*data)));
  t0 = NowNs();
  const auto memory = std::make_shared<const twig::cst::Cst>(twig::cst::Cst::Build(*data, pst, copt));
  t1 = NowNs();
  spans.Add("cst.build", 0, -1, t0, t1);
  results.Add("cst.build_s", Seconds(t0, t1), "s", 1);

  // The paged twin: the served store for paged_evict, otherwise a store
  // of the served CST written here.
  std::string store = work + "/store.twcst03";
  if (!spec.paged) {
    Result<std::string> blob = memory->SerializePaged(kPageBytes);
    if (!blob.ok()) return Fail(blob.status());
    store = work + "/layers.twcst03";
    std::ofstream(store, std::ios::binary | std::ios::trunc) << blob.value();
  }
  twig::cst::PagedCstOptions popt;
  popt.pool_bytes = static_cast<size_t>(kBufferMb * 1024 * 1024);
  t0 = NowNs();
  Result<std::shared_ptr<twig::cst::PagedCst>> opened = twig::cst::PagedCst::OpenFile(store, popt);
  t1 = NowNs();
  if (!opened.ok()) return Fail(opened.status());
  const std::shared_ptr<const CstView> paged = std::move(opened).value();
  spans.Add("cst.open", 0, -1, t0, t1);
  results.Add("cst.open_s", Seconds(t0, t1), "s", 1);

  const Inputs inputs = MakeInputs(spec, *data, seed, *memory);
  const std::shared_ptr<const CstView> own =
      spec.paged ? paged : std::static_pointer_cast<const CstView>(memory);
  const core::TwigEstimator estimator(own.get());

  // The replayed requests: the start of the workload's stream, as the
  // client spells them on the wire.
  std::vector<std::string> lines;
  std::vector<uint32_t> replay;
  for (size_t i = 0; i < kReplay; ++i) {
    const uint32_t spelling = inputs.stream[i % inputs.stream.size()];
    twig::obs::JsonWriter query;
    query.String(inputs.spellings[spelling]);
    lines.push_back(R"({"op":"estimate","query":)" + std::move(query).str() + R"(,"id":)" +
                    std::to_string(i + 1) + "}");
    replay.push_back(spelling);
  }

  // Trace equivalence on both views; warms the paged pool as a side
  // effect, before anything is timed.
  const std::set<uint32_t> distinct(replay.begin(), replay.end());
  for (const uint32_t spelling : distinct) {
    const std::string& text = inputs.spellings[spelling];
    const twig::query::Twig twig = twig::query::ParseTwig(text).value();
    for (const CstView* view : {static_cast<const CstView*>(memory.get()), paged.get()}) {
      const Result<double> reference =
          core::TwigEstimator(view).TryEstimate(twig, core::Algorithm::kMsh);
      const CountingView counting(view);
      const Result<double> staged = Staged(twig, *view, nullptr, nullptr, 0, -1);
      const Result<double> counted = Staged(twig, counting, nullptr, nullptr, 0, -1);
      if (!reference.ok() || !staged.ok() || !counted.ok() ||
          !SameBits(*reference, *staged) || !SameBits(*reference, *counted)) {
        return Fail(Status::Internal("trace equivalence fails for twig '" + text + "'"));
      }
    }
  }

  // Timed replay of the serving path's calls on the workload's view.
  std::vector<double> decode, query_parse, encode, estimate_ns;
  StageTimes stages;
  for (size_t i = 0; i < replay.size(); ++i) {
    const uint64_t request = i + 1;
    const int32_t root = spans.Add("replay", request, -1, 0, 0);
    const int64_t r0 = NowNs();
    Result<twig::serve::WireRequest> wire = twig::serve::ParseRequest(lines[i]);
    const int64_t r1 = NowNs();
    Result<twig::query::Twig> twig = twig::query::ParseTwig(wire.value().query);
    const int64_t r2 = NowNs();
    const Result<double> estimate = Staged(twig.value(), *own, &stages, &spans, request, root);
    const int64_t r3 = NowNs();
    twig::serve::EstimateResponse response;
    response.estimate = estimate.value();
    response.snapshot_version = 1;
    response.exec_time = std::chrono::nanoseconds(r3 - r2);
    const std::string reply = twig::serve::EstimateWireResponse(wire.value(), response);
    const int64_t r4 = NowNs();
    decode.push_back(static_cast<double>(r1 - r0));
    query_parse.push_back(static_cast<double>(r2 - r1));
    encode.push_back(static_cast<double>(r4 - r3));
    spans.Add("serve.wire.decode", request, root, r0, r1);
    spans.Add("query.parse", request, root, r1, r2);
    spans.Add("serve.wire.encode", request, root, r3, r4);
    spans.SetTimes(root, r0, r4);
    if (reply.empty()) return Fail(Status::Internal("empty reply"));
  }
  results.AddMedianUs("serve.wire.decode_us", decode);
  results.AddMedianUs("serve.wire.encode_us", encode);
  results.AddMedianUs("query.parse_us", query_parse);
  results.AddMedianUs("core.expand_us", stages.expand);
  results.AddMedianUs("core.parse_us", stages.parse);
  results.AddMedianUs("core.decompose_us", stages.decompose);
  results.AddMedianUs("core.combine_us", stages.combine);

  // TryEstimate whole, with the obs counters it moves.
  std::vector<twig::query::Twig> twigs;
  for (const uint32_t spelling : replay) {
    twigs.push_back(twig::query::ParseTwig(inputs.spellings[spelling]).value());
  }
  const twig::obs::MetricsSnapshot before = twig::obs::MetricsRegistry::Get().Snapshot();
  for (const twig::query::Twig& twig : twigs) {
    const int64_t e0 = NowNs();
    const Result<double> estimate = estimator.TryEstimate(twig, core::Algorithm::kMsh);
    estimate_ns.push_back(static_cast<double>(NowNs() - e0));
    if (!estimate.ok()) return Fail(estimate.status());
  }
  const twig::obs::CounterArray counters =
      twig::obs::MetricsRegistry::Get().Snapshot().Delta(before).counters;
  results.AddMedianUs("core.estimate_us", estimate_ns);
  auto counter = [&](twig::obs::Counter c) {
    return static_cast<double>(counters[static_cast<size_t>(c)]);
  };
  const double n = static_cast<double>(twigs.size());
  const double lookups = counter(twig::obs::Counter::kCstSubpathLookups);
  results.Add("cst.lookups_per_req", lookups / n, "count", twigs.size());
  results.Add("cst.hit_ratio", lookups > 0 ? counter(twig::obs::Counter::kCstSubpathHits) / lookups : 0,
              "fraction", twigs.size());
  results.Add("sethash.ix_per_req", counter(twig::obs::Counter::kSethashIntersections) / n, "count",
              twigs.size());
  const CountingView counting(own.get());
  for (const twig::query::Twig& twig : twigs) {
    (void)Staged(twig, counting, nullptr, nullptr, 0, -1);
  }
  results.Add("cst.calls_per_req", static_cast<double>(counting.calls()) / n, "count", twigs.size());

  // The queue hand-off: one caller, the service configured as twig_serve
  // configures it by default (2 workers, queue 256, recorder 256,
  // accuracy sampler every 256th estimate, cache off).
  {
    twig::serve::SnapshotCatalog catalog;
    catalog.Publish(own, "perfbench", 0, spec.paged ? nullptr : data);
    twig::serve::ServiceOptions sopt;
    sopt.accuracy_sample_every = 256;
    twig::serve::EstimateService service(&catalog, sopt);
    std::vector<double> handoff;
    for (size_t i = 0; i < kHandoffRequests; ++i) {
      twig::serve::EstimateRequest request;
      request.twig = twigs[i % twigs.size()];
      const int64_t s0 = NowNs();
      const twig::serve::EstimateResponse response = service.Submit(std::move(request)).get();
      const int64_t s1 = NowNs();
      if (!response.status.ok()) return Fail(response.status);
      handoff.push_back(static_cast<double>(s1 - s0 - response.queue_wait.count() -
                                            response.exec_time.count()));
      spans.Add("serve.service.submit", i + 1, -1, s0, s1);
    }
    results.AddMedianUs("serve.service.handoff_p50_us", handoff);
  }

  // The exact matcher the accuracy sampler runs, per twig.
  std::vector<double> exact_ms;
  for (size_t i = 0; i < std::min(kExactTwigs, inputs.twigs.size()); ++i) {
    const twig::query::Twig& twig = inputs.twigs[i * inputs.twigs.size() / kExactTwigs];
    const int64_t m0 = NowNs();
    const Result<twig::match::TwigCounts> exact = twig::match::CountTwigMatches(*data, twig);
    const int64_t m1 = NowNs();
    if (!exact.ok()) return Fail(exact.status());
    spans.Add("match.exact", 0, -1, m0, m1);
    exact_ms.push_back(static_cast<double>(m1 - m0) / 1e6);
  }
  double exact_sum = 0;
  for (const double ms : exact_ms) exact_sum += ms;
  results.Add("match.exact_ms", exact_sum / static_cast<double>(exact_ms.size()), "ms",
              exact_ms.size());

  // Self time by layer over the replay, for the breakdown.
  for (const auto& [name, self_ns] : spans.SelfTimeByName()) {
    std::printf("layer self %-24s %12.3f ms\n", name.c_str(), static_cast<double>(self_ns) / 1e6);
  }
  if (Status s = spans.WriteJson(out + "/" + spec.name + ".layer-spans.json"); !s.ok()) {
    return Fail(s);
  }
  if (Status s = results.Write(work + "/layers.json"); !s.ok()) return Fail(s);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> flags;
  const WorkloadSpec* spec = nullptr;
  if (!ParseArgs(argc, argv, &flags) || (spec = FindWorkload(flags["workload"])) == nullptr ||
      flags.count("work") == 0) {
    std::fprintf(stderr,
                 "usage: perfbench_layers --workload=NAME --seed=N --work=DIR [--out=DIR]\n");
    return 2;
  }
  return Run(*spec, std::strtoull(flags["seed"].c_str(), nullptr, 10), flags["work"],
             flags.count("out") ? flags["out"] : flags["work"]);
}
