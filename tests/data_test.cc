#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "data/generators.h"
#include "data/vocab.h"
#include "tree/tree.h"
#include "util/rng.h"
#include "xml/xml.h"

namespace twig::data {
namespace {

/// Edges on the longest root-to-leaf path of `t`.
size_t MaxDepth(const tree::Tree& t) {
  size_t deepest = 0;
  auto descend = [&](auto&& self, tree::NodeId n, size_t depth) -> void {
    deepest = std::max(deepest, depth);
    for (tree::NodeId c : t.Children(n)) self(self, c, depth + 1);
  };
  if (!t.empty()) descend(descend, t.root(), 0);
  return deepest;
}

TEST(VocabularyTest, GeneratesDistinctWords) {
  Rng rng(3);
  Vocabulary vocab(500, 1.0, WordStyle::kLowercase, rng);
  std::set<std::string> words;
  for (size_t i = 0; i < vocab.size(); ++i) words.insert(vocab.At(i));
  EXPECT_EQ(words.size(), 500u);
}

TEST(VocabularyTest, CapitalizedStyle) {
  Rng rng(3);
  Vocabulary vocab(50, 0.5, WordStyle::kCapitalized, rng);
  for (size_t i = 0; i < vocab.size(); ++i) {
    EXPECT_TRUE(std::isupper(static_cast<unsigned char>(vocab.At(i)[0])))
        << vocab.At(i);
  }
}

TEST(VocabularyTest, ZipfSamplingFavorsLowRanks) {
  Rng rng(5);
  Vocabulary vocab(100, 1.2, WordStyle::kLowercase, rng);
  size_t top = 0;
  for (int i = 0; i < 5000; ++i) {
    if (vocab.Sample(rng) == vocab.At(0)) ++top;
  }
  EXPECT_GT(top, 200u);  // far above the uniform 50
}

TEST(DblpGeneratorTest, HitsTargetSize) {
  DblpOptions options;
  options.target_bytes = 256 * 1024;
  tree::Tree t = GenerateDblp(options);
  const size_t bytes = xml::XmlByteSize(t);
  EXPECT_GE(bytes, options.target_bytes);
  EXPECT_LE(bytes, options.target_bytes + options.target_bytes / 4);
}

TEST(DblpGeneratorTest, DeterministicInSeed) {
  DblpOptions options;
  options.target_bytes = 32 * 1024;
  tree::Tree a = GenerateDblp(options);
  tree::Tree b = GenerateDblp(options);
  EXPECT_EQ(xml::WriteXml(a), xml::WriteXml(b));
  options.seed = 43;
  tree::Tree c = GenerateDblp(options);
  EXPECT_NE(xml::WriteXml(a), xml::WriteXml(c));
}

TEST(DblpGeneratorTest, HasExpectedSchema) {
  DblpOptions options;
  options.target_bytes = 128 * 1024;
  tree::Tree t = GenerateDblp(options);
  EXPECT_EQ(t.LabelName(t.root()), "dblp");
  std::set<std::string> record_tags;
  size_t multi_author_records = 0;
  for (tree::NodeId record : t.Children(t.root())) {
    record_tags.insert(std::string(t.LabelName(record)));
    size_t authors = 0;
    bool has_title = false;
    bool has_year = false;
    for (tree::NodeId field : t.Children(record)) {
      const std::string_view tag = t.LabelName(field);
      if (tag == "author") ++authors;
      if (tag == "title") has_title = true;
      if (tag == "year") has_year = true;
    }
    EXPECT_GE(authors, 1u);
    EXPECT_LE(authors, 5u);
    EXPECT_TRUE(has_title);
    EXPECT_TRUE(has_year);
    if (authors >= 2) ++multi_author_records;
  }
  // All four record types appear, and duplicate sibling labels (the
  // multiset problem) are common.
  EXPECT_EQ(record_tags.count("article"), 1u);
  EXPECT_EQ(record_tags.count("inproceedings"), 1u);
  EXPECT_EQ(record_tags.count("book"), 1u);
  EXPECT_GT(multi_author_records, t.Children(t.root()).size() / 4);
}

TEST(DblpGeneratorTest, CommunityCorrelationPresent) {
  // Authors publish in few journals: the per-author journal
  // distribution must be much narrower than the global one.
  DblpOptions options;
  options.target_bytes = 512 * 1024;
  tree::Tree t = GenerateDblp(options);
  std::map<std::string, std::set<std::string>> journals_by_author;
  std::set<std::string> all_journals;
  for (tree::NodeId record : t.Children(t.root())) {
    std::string journal;
    std::vector<std::string> authors;
    for (tree::NodeId field : t.Children(record)) {
      const std::string_view tag = t.LabelName(field);
      if (t.Children(field).empty()) continue;
      const std::string_view value = t.Value(t.Children(field)[0]);
      if (tag == "journal") journal = std::string(value);
      if (tag == "author") authors.emplace_back(value);
    }
    if (journal.empty()) continue;
    all_journals.insert(journal);
    for (auto& a : authors) journals_by_author[a].insert(journal);
  }
  ASSERT_GT(all_journals.size(), 10u);
  // Median distinct journals per author is small.
  std::vector<size_t> counts;
  for (auto& [a, js] : journals_by_author) counts.push_back(js.size());
  std::sort(counts.begin(), counts.end());
  EXPECT_LE(counts[counts.size() / 2], all_journals.size() / 4);
}

TEST(SwissProtGeneratorTest, HitsTargetSizeAndSchema) {
  SwissProtOptions options;
  options.target_bytes = 128 * 1024;
  tree::Tree t = GenerateSwissProt(options);
  EXPECT_GE(xml::XmlByteSize(t), options.target_bytes);
  EXPECT_EQ(t.LabelName(t.root()), "sptr");
  // Deeper than DBLP and with more distinct tags per byte.
  EXPECT_GE(MaxDepth(t), 5u);
  EXPECT_GT(t.labels().size(), 15u);
}

TEST(SwissProtGeneratorTest, LineageConsistentPerOrganism) {
  SwissProtOptions options;
  options.target_bytes = 256 * 1024;
  tree::Tree t = GenerateSwissProt(options);
  // Same organism name => same lineage (families are stable).
  std::map<std::string, std::string> lineage_by_organism;
  for (tree::NodeId entry : t.Children(t.root())) {
    std::string name;
    std::string lineage;
    for (tree::NodeId c : t.Children(entry)) {
      if (t.LabelName(c) != "organism") continue;
      for (tree::NodeId oc : t.Children(c)) {
        if (t.LabelName(oc) == "name") {
          name = std::string(t.Value(t.Children(oc)[0]));
        } else if (t.LabelName(oc) == "lineage") {
          for (tree::NodeId taxon : t.Children(oc)) {
            lineage += std::string(t.Value(t.Children(taxon)[0]));
            lineage += '/';
          }
        }
      }
    }
    ASSERT_FALSE(name.empty());
    auto [it, inserted] = lineage_by_organism.emplace(name, lineage);
    if (!inserted) {
      EXPECT_EQ(it->second, lineage) << name;
    }
  }
}

TEST(GeneratorComplexityContrast, SwissProtDenserSubpaths) {
  // The SWISS-PROT stand-in must be structurally richer per byte — the
  // paper's reason it needs more summary space.
  DblpOptions dopt;
  dopt.target_bytes = 256 * 1024;
  SwissProtOptions sopt;
  sopt.target_bytes = 256 * 1024;
  tree::Tree dblp = GenerateDblp(dopt);
  tree::Tree sprot = GenerateSwissProt(sopt);
  EXPECT_GT(MaxDepth(sprot), MaxDepth(dblp));
  EXPECT_GT(sprot.labels().size(), dblp.labels().size());
}

}  // namespace
}  // namespace twig::data
