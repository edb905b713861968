// Tests for the benchmark's own code: percentile selection, span self
// time, seeded inputs, and the answer check.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "cst/cst.h"
#include "data/generators.h"
#include "query/twig.h"
#include "serve/wire.h"
#include "suffix/path_suffix_tree.h"
#include "xml/xml.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i + 1);
  return values;
}

TEST(QuantileTest, P999NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(Quantile(Ramp(9999), 0.999).has_value());
  const std::optional<double> p999 = Quantile(Ramp(10000), 0.999);
  ASSERT_TRUE(p999.has_value());
  EXPECT_EQ(*p999, 9990.0);  // exactly 10 samples above it
  EXPECT_EQ(*Quantile(Ramp(20000), 0.999), 19980.0);
}

TEST(QuantileTest, MedianIsNearestRank) {
  EXPECT_EQ(*Quantile(Ramp(21), 0.5), 11.0);
  EXPECT_EQ(*Quantile(Ramp(20), 0.5), 10.0);
  EXPECT_FALSE(Quantile(Ramp(19), 0.5).has_value());
  EXPECT_EQ(*Quantile(Ramp(3), 0.5, 0), 2.0);
  EXPECT_FALSE(Quantile({}, 0.5, 0).has_value());
}

TEST(QuantileTest, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(SpanLogTest, SelfTimeSubtractsTheUnionOfClippedChildren) {
  SpanLog log;
  const int32_t root = log.Add("root", 1, -1, 0, 100);
  log.Add("a", 1, root, 10, 30);
  log.Add("b", 1, root, 20, 50);   // overlaps a: covered once
  log.Add("c", 1, root, 90, 120);  // clipped to the root's end
  const int32_t d = log.Add("d", 1, root, 60, 70);
  log.Add("e", 1, d, 62, 65);  // a grandchild only shortens d
  const std::vector<int64_t> self = log.SelfTimes();
  EXPECT_EQ(self[0], 100 - 40 - 10 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10 - 3);
  EXPECT_EQ(self[5], 3);
  EXPECT_EQ(log.SelfTimeByName().at("root"), 40);
}

TEST(SpanLogTest, SetTimesPlacesARootAfterItsChildren) {
  SpanLog log;
  const int32_t root = log.Add("replay", 7, -1, 0, 0);
  log.Add("stage", 7, root, 5, 8);
  log.SetTimes(root, 4, 10);
  EXPECT_EQ(log.SelfTimes()[0], 3);
}

/// A small served document and its summary, for the input tests.
struct SmallDocument {
  SmallDocument() {
    twig::data::DblpOptions gen;
    gen.target_bytes = 256 << 10;
    data = twig::xml::ParseXml(twig::xml::WriteXml(twig::data::GenerateDblp(gen))).value();
    const auto pst = twig::suffix::PathSuffixTree::Build(data);
    twig::cst::CstOptions copt;
    copt.space_budget_bytes = twig::xml::XmlByteSize(data) / 20;
    summary = std::make_unique<twig::cst::Cst>(twig::cst::Cst::Build(data, pst, copt));
  }
  twig::tree::Tree data;
  std::unique_ptr<twig::cst::Cst> summary;
};

const SmallDocument& Small() {
  static const SmallDocument* doc = new SmallDocument();
  return *doc;
}

TEST(InputsTest, SameSeedSameTwigsOrderZipfDrawsAndSpellings) {
  for (const WorkloadSpec& spec : kWorkloads) {
    const Inputs a = MakeInputs(spec, Small().data, 11, *Small().summary);
    const Inputs b = MakeInputs(spec, Small().data, 11, *Small().summary);
    const Inputs c = MakeInputs(spec, Small().data, 12, *Small().summary);
    EXPECT_EQ(a.spellings, b.spellings) << spec.name;
    EXPECT_EQ(a.stream, b.stream) << spec.name;
    EXPECT_EQ(a.spelling_twig, b.spelling_twig) << spec.name;
    EXPECT_NE(a.stream == c.stream && a.spellings == c.spellings, true) << spec.name;
    EXPECT_FALSE(a.twigs.empty()) << spec.name;
  }
}

TEST(InputsTest, SpellingsAreTheSameUnorderedTwig) {
  const Inputs inputs = MakeInputs(kWorkloads[2], Small().data, 3, *Small().summary);
  ASSERT_GT(inputs.spellings.size(), inputs.twigs.size());
  for (size_t s = 0; s < inputs.spellings.size(); ++s) {
    const twig::query::Twig parsed = twig::query::ParseTwig(inputs.spellings[s]).value();
    EXPECT_EQ(CanonicalText(parsed), CanonicalText(inputs.twigs[inputs.spelling_twig[s]]));
  }
}

TEST(InputsTest, RespellIsSeededAndKeepsTheUnorderedTwig) {
  const twig::query::Twig twig =
      twig::query::ParseTwig(R"(article(author="Su", year, //title, *(ee)))").value();
  twig::Rng r1(5), r2(5);
  std::set<std::string> spellings;
  for (int i = 0; i < 50; ++i) {
    const twig::query::Twig a = Respell(twig, r1);
    EXPECT_EQ(twig::query::FormatTwig(a), twig::query::FormatTwig(Respell(twig, r2)));
    EXPECT_EQ(CanonicalText(a), CanonicalText(twig));
    spellings.insert(twig::query::FormatTwig(a));
  }
  EXPECT_GT(spellings.size(), 1u);
  EXPECT_TRUE(HasReorderableSiblings(twig));
  EXPECT_FALSE(HasReorderableSiblings(twig::query::ParseTwig("a(b, b)").value()));
}

/// A reply line exactly as the server renders it.
std::string ServedReply(double estimate) {
  twig::serve::WireRequest request;
  request.op = "estimate";
  request.has_id = true;
  request.id = 42;
  twig::serve::EstimateResponse response;
  response.estimate = estimate;
  response.snapshot_version = 3;
  return twig::serve::EstimateWireResponse(request, response);
}

TEST(AnswerCheckTest, AcceptsTheServedRenderingOfTheReference) {
  for (const double value : {41.5, 1.0 / 3.0, 1e-300, 123456789.123456789}) {
    const std::string reply = ServedReply(value);
    EXPECT_EQ(ReplyField(reply, "id"), "42");
    EXPECT_EQ(ReplyField(reply, "ok"), "true");
    EXPECT_EQ(ReplyNumber(reply, "version"), 3.0);
    EXPECT_TRUE(CheckAnswer("a(b)", EstimateText(value), ReplyField(reply, "estimate")).ok());
  }
}

TEST(AnswerCheckTest, FailsOnATamperedReplyAndNamesTheTwig) {
  const double value = 1.0 / 3.0;
  std::string reply = ServedReply(value);
  const size_t at = reply.find("\"estimate\":") + 11 + 10;  // a digit mid-number
  reply[at] = reply[at] == '9' ? '8' : static_cast<char>(reply[at] + 1);
  const Status status =
      CheckAnswer("article(author)", EstimateText(value), ReplyField(reply, "estimate"));
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("article(author)"), std::string::npos);
  // The next double up differs only in the last bits, and still fails.
  EXPECT_FALSE(CheckAnswer("t", EstimateText(value),
                           EstimateText(std::nextafter(value, 1.0)))
                   .ok());
}

}  // namespace
}  // namespace perfbench
