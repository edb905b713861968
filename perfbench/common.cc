#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/estimator.h"
#include "data/generators.h"
#include "obs/json.h"
#include "util/hash.h"
#include "workload/workload.h"
#include "xml/xml.h"

namespace perfbench {

using twig::Rng;
using twig::query::EdgeKind;
using twig::query::Twig;
using twig::query::TwigNodeId;

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t SubSeed(uint64_t seed, std::string_view purpose) {
  return twig::Mix64(seed ^ twig::Mix64(std::hash<std::string_view>{}(purpose)));
}

Document MakeDocument(uint64_t seed) {
  twig::data::DblpOptions gen;
  gen.target_bytes = kXmlBytes;
  gen.seed = SubSeed(seed, "xml");
  Document doc;
  doc.xml = twig::xml::WriteXml(twig::data::GenerateDblp(gen));
  // The server parses the file; the references must summarize the
  // same tree, so parse it here exactly as the server will.
  doc.data = twig::xml::ParseXml(doc.xml).value();
  return doc;
}

namespace {

void CanonicalInto(const Twig& twig, TwigNodeId node, std::string* out) {
  out->push_back(twig.EdgeFromParent(node) == EdgeKind::kDescendant ? 'D'
                                                                    : 'C');
  const std::string_view text =
      twig.IsValue(node) ? twig.Value(node) : twig.Tag(node);
  out->push_back(twig.IsValue(node) ? 'V' : 'T');
  *out += std::to_string(text.size());
  out->push_back(':');
  *out += text;
  const std::vector<TwigNodeId>& children = twig.Children(node);
  if (children.empty()) return;
  std::vector<std::string> parts(children.size());
  for (size_t i = 0; i < children.size(); ++i) {
    CanonicalInto(twig, children[i], &parts[i]);
  }
  std::sort(parts.begin(), parts.end());
  out->push_back('(');
  for (const std::string& part : parts) {
    *out += part;
    out->push_back(',');
  }
  out->push_back(')');
}

void RespellInto(const Twig& from, TwigNodeId node, Twig* to,
                 TwigNodeId to_node, Rng& rng) {
  std::vector<TwigNodeId> order = from.Children(node);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  for (const TwigNodeId child : order) {
    if (from.IsValue(child)) {
      to->AddValue(to_node, from.Value(child));
    } else {
      RespellInto(from, child,
                  to, to->AddElement(to_node, from.Tag(child),
                                     from.EdgeFromParent(child)),
                  rng);
    }
  }
}

std::string SubtreeCanonical(const Twig& twig, TwigNodeId node) {
  std::string out;
  CanonicalInto(twig, node, &out);
  return out;
}

/// Appends `twigs` not seen before (as unordered twigs) and estimable
/// on `reference` to `inputs`.
void AddDistinct(const twig::workload::Workload& twigs, QueryClass cls,
                 const twig::cst::CstView& reference,
                 std::set<std::string>* seen, Inputs* inputs) {
  const twig::core::TwigEstimator estimator(&reference);
  for (const twig::workload::WorkloadQuery& query : twigs) {
    if (!seen->insert(CanonicalText(query.twig)).second) continue;
    const Result<double> estimate =
        estimator.TryEstimate(query.twig, twig::core::Algorithm::kMsh);
    if (!estimate.ok() || !std::isfinite(*estimate)) {
      ++inputs->dropped;
      continue;
    }
    inputs->twigs.push_back(query.twig);
    inputs->twig_class.push_back(cls);
  }
}

}  // namespace

std::string CanonicalText(const Twig& twig) {
  return twig.empty() ? std::string() : SubtreeCanonical(twig, twig.root());
}

Twig Respell(const Twig& twig, Rng& rng) {
  Twig out;
  if (twig.empty()) return out;
  RespellInto(twig, twig.root(), &out, out.AddRoot(twig.Tag(twig.root())),
              rng);
  return out;
}

bool HasReorderableSiblings(const Twig& twig) {
  for (TwigNodeId node = 0; node < twig.size(); ++node) {
    const std::vector<TwigNodeId>& children = twig.Children(node);
    if (children.size() < 2) continue;
    const std::string first = SubtreeCanonical(twig, children[0]);
    for (size_t i = 1; i < children.size(); ++i) {
      if (SubtreeCanonical(twig, children[i]) != first) return true;
    }
  }
  return false;
}

Inputs MakeInputs(const WorkloadSpec& spec, const twig::tree::Tree& data,
                  uint64_t seed, const twig::cst::CstView& reference) {
  Inputs inputs;
  std::set<std::string> seen;
  twig::workload::WorkloadOptions wopt;
  wopt.compute_true_counts = false;
  if (!spec.zipf_spellings) {
    const size_t axes = static_cast<size_t>(kMixTwigs * kAxesShare);
    wopt.num_queries = kMixTwigs - axes;
    wopt.seed = SubSeed(seed, "positive");
    AddDistinct(twig::workload::GeneratePositive(data, wopt),
                QueryClass::kPositive, reference, &seen, &inputs);
    wopt.num_queries = axes;
    wopt.seed = SubSeed(seed, "axes");
    wopt.wildcard_probability = 0.2;
    wopt.descendant_probability = 0.3;
    AddDistinct(twig::workload::GenerateAxes(data, wopt), QueryClass::kAxes,
                reference, &seen, &inputs);
    // Each twig is sent as generated, the set cycled in a seeded order.
    for (const Twig& twig : inputs.twigs) {
      inputs.spelling_twig.push_back(
          static_cast<uint32_t>(inputs.spellings.size()));
      inputs.spellings.push_back(twig::query::FormatTwig(twig));
    }
    inputs.stream.resize(inputs.spellings.size());
    for (uint32_t i = 0; i < inputs.stream.size(); ++i) inputs.stream[i] = i;
    Rng rng(SubSeed(seed, "order"));
    for (size_t i = inputs.stream.size(); i > 1; --i) {
      std::swap(inputs.stream[i - 1], inputs.stream[rng.Uniform(i)]);
    }
    return inputs;
  }

  wopt.num_queries = kZipfTwigs;
  wopt.seed = SubSeed(seed, "positive");
  AddDistinct(twig::workload::GeneratePositive(data, wopt),
              QueryClass::kPositive, reference, &seen, &inputs);
  // Popularity rank is a seeded permutation of the twigs, independent
  // of generation order; every request draws a fresh sibling order.
  std::vector<uint32_t> by_rank(inputs.twigs.size());
  for (uint32_t i = 0; i < by_rank.size(); ++i) by_rank[i] = i;
  Rng rng(SubSeed(seed, "zipf"));
  for (size_t i = by_rank.size(); i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.Uniform(i)]);
  }
  const twig::ZipfSampler zipf(by_rank.size(), kZipfTheta);
  Rng spell_rng(SubSeed(seed, "spellings"));
  std::unordered_map<std::string, uint32_t> index;
  inputs.stream.reserve(kZipfStream);
  for (size_t i = 0; i < kZipfStream; ++i) {
    const uint32_t twig = by_rank[zipf.Sample(rng)];
    std::string text =
        twig::query::FormatTwig(Respell(inputs.twigs[twig], spell_rng));
    auto [it, added] = index.try_emplace(
        std::move(text), static_cast<uint32_t>(inputs.spellings.size()));
    if (added) {
      inputs.spellings.push_back(it->first);
      inputs.spelling_twig.push_back(twig);
    }
    inputs.stream.push_back(it->second);
  }
  return inputs;
}

std::string EstimateText(double estimate) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", estimate);
  return buf;
}

Result<double> ReferenceEstimate(const twig::cst::CstView& view,
                                 std::string_view text) {
  Result<Twig> twig = twig::query::ParseTwig(text);
  if (!twig.ok()) return twig.status();
  return twig::core::TwigEstimator(&view).TryEstimate(
      twig.value(), twig::core::Algorithm::kMsh);
}

std::string_view ReplyField(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  const size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  const size_t begin = at + pattern.size();
  size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}

double ReplyNumber(std::string_view line, std::string_view key) {
  const std::string text(ReplyField(line, key));
  return text.empty() ? 0 : std::strtod(text.c_str(), nullptr);
}

Status CheckAnswer(std::string_view twig_text, std::string_view expected,
                   std::string_view served) {
  if (expected == served) return Status::OK();
  return Status::Internal("wrong answer for twig '" + std::string(twig_text) +
                          "': served " + std::string(served) +
                          ", reference " + std::string(expected));
}

std::optional<double> Quantile(const std::vector<double>& sorted, double q,
                               size_t min_beyond) {
  const size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  // Nearest rank (1-based); the epsilon keeps 0.999 * 10000 at 9990.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

int32_t SpanLog::Add(const char* name, uint64_t request, int32_t parent,
                     int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{name, request, parent, start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::SetTimes(int32_t span, int64_t start_ns, int64_t end_ns) {
  spans_[static_cast<size_t>(span)].start_ns = start_ns;
  spans_[static_cast<size_t>(span)].end_ns = end_ns;
}

std::vector<int64_t> SpanLog::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<size_t>(span.parent)];
    const int64_t start = std::max(span.start_ns, parent.start_ns);
    const int64_t end = std::min(span.end_ns, parent.end_ns);
    if (start < end) covered[static_cast<size_t>(span.parent)].push_back({start, end});
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    int64_t union_ns = 0;
    int64_t reach = INT64_MIN;
    for (const auto& [start, end] : parts) {
      const int64_t from = std::max(start, reach);
      if (end > from) union_ns += end - from;
      reach = std::max(reach, end);
    }
    self[i] = spans_[i].end_ns - spans_[i].start_ns - union_ns;
  }
  return self;
}

std::map<std::string, int64_t> SpanLog::SelfTimeByName() const {
  std::map<std::string, int64_t> out;
  const std::vector<int64_t> self = SelfTimes();
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

Status SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot write " + path);
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    twig::obs::JsonWriter writer;
    writer.BeginObject();
    writer.Key("name");
    writer.String(span.name);
    writer.Key("request");
    writer.Uint(span.request);
    writer.Key("parent");
    writer.Int(span.parent);
    writer.Key("start_ns");
    writer.Int(span.start_ns);
    writer.Key("end_ns");
    writer.Int(span.end_ns);
    writer.EndObject();
    out << (i == 0 ? "\n" : ",\n") << std::move(writer).str();
  }
  out << "\n]\n";
  out.flush();
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("metric %-34s %14.6g %-9s n=%zu%s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.samples,
                metric.bounded ? "" : " (reported, unbounded)");
  }
  twig::obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("correct");
  writer.Bool(correct);
  writer.Key("attempted");
  writer.Uint(attempted);
  writer.Key("failed");
  writer.Uint(failed);
  writer.Key("metrics");
  writer.BeginObject();
  for (const Metric& metric : metrics) {
    if (!metric.bounded) continue;
    writer.Key(metric.name);
    writer.BeginObject();
    writer.Key("value");
    writer.Double(metric.value);
    writer.Key("unit");
    writer.String(metric.unit);
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
  std::printf("%s\n", std::move(writer).str().c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv,
               std::map<std::string, std::string>* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      (*out)[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      (*out)[arg] = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
