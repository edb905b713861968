#include "data/generators.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "data/vocab.h"
#include "util/rng.h"

namespace twig::data {

namespace {

using tree::NodeId;
using tree::Tree;
using tree::TreeBuilder;

/// Tree builder that tracks the approximate serialized XML size as it
/// goes, so generators can stop at a byte target.
class SizedBuilder {
 public:
  NodeId Root(std::string_view tag) {
    bytes_ += 2 * tag.size() + 5;
    return builder_.AddRoot(tag);
  }
  NodeId Elem(NodeId parent, std::string_view tag) {
    bytes_ += 2 * tag.size() + 5;
    return builder_.AddElement(parent, tag);
  }
  void Value(NodeId parent, std::string_view value) {
    bytes_ += value.size();
    builder_.AddValue(parent, value);
  }
  /// Element with a single value child: <tag>value</tag>.
  void Field(NodeId parent, std::string_view tag, std::string_view value) {
    Value(Elem(parent, tag), value);
  }

  size_t bytes() const { return bytes_; }
  Tree Finish() && { return std::move(builder_).Finish(); }

 private:
  TreeBuilder builder_;
  size_t bytes_ = 0;
};

std::string NumberString(Rng& rng, int lo, int hi) {
  return std::to_string(rng.UniformInt(lo, hi));
}

std::string PagesString(Rng& rng) {
  const int start = static_cast<int>(rng.UniformInt(1, 800));
  return std::to_string(start) + "-" +
         std::to_string(start + static_cast<int>(rng.UniformInt(4, 30)));
}

std::string Capitalize(std::string s) {
  if (!s.empty()) {
    s[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(s[0])));
  }
  return s;
}

/// A research community: the unit of correlation. Real bibliographic
/// data is strongly correlated — an author publishes in a few venues,
/// in a bounded span of years, on a recurring set of topics, with
/// recurring co-authors. Records are generated *per community*, which
/// is what makes sibling subpaths (author <-> journal <-> year <->
/// title words) statistically dependent, the effect set hashing is
/// designed to capture (paper Section 3, problem 2).
struct Community {
  std::vector<size_t> authors;     // ranks into the surname vocabulary
  std::vector<size_t> journals;    // ranks into the journal vocabulary
  std::vector<size_t> conferences; // ranks into the conference vocabulary
  std::vector<size_t> topics;      // ranks into the title-word vocabulary
  int year_lo = 1970;
  int year_hi = 2000;
};

/// Draws `count` distinct ranks in [0, n).
std::vector<size_t> DrawRanks(Rng& rng, size_t n, size_t count) {
  std::vector<size_t> out;
  while (out.size() < count && out.size() < n) {
    const size_t r = rng.Uniform(n);
    if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
  }
  return out;
}

std::vector<Community> MakeCommunities(Rng& rng, size_t count,
                                       size_t author_vocab,
                                       size_t journal_vocab,
                                       size_t conference_vocab,
                                       size_t title_vocab) {
  std::vector<Community> communities(count);
  for (auto& c : communities) {
    c.authors = DrawRanks(rng, author_vocab,
                          8 + rng.Uniform(std::max<size_t>(author_vocab / count, 9)));
    c.journals = DrawRanks(rng, journal_vocab, 2 + rng.Uniform(2));
    c.conferences = DrawRanks(rng, conference_vocab, 2 + rng.Uniform(2));
    c.topics = DrawRanks(rng, title_vocab,
                         12 + rng.Uniform(std::max<size_t>(title_vocab / count, 13)));
    c.year_lo = 1970 + static_cast<int>(rng.Uniform(22));
    c.year_hi = std::min(2000, c.year_lo + 4 + static_cast<int>(rng.Uniform(6)));
  }
  return communities;
}

/// Zipf-samples a rank from a community's member list.
size_t PickMember(Rng& rng, const ZipfSampler& skew,
                  const std::vector<size_t>& members) {
  return members[skew.Sample(rng) % members.size()];
}

std::string TitleFromTopics(Rng& rng, const Vocabulary& words,
                            const ZipfSampler& skew,
                            const std::vector<size_t>& topics, int min_words,
                            int max_words) {
  const int n = static_cast<int>(rng.UniformInt(min_words, max_words));
  std::string title;
  for (int i = 0; i < n; ++i) {
    if (i > 0) title += ' ';
    title += words.At(PickMember(rng, skew, topics));
  }
  return Capitalize(std::move(title));
}

}  // namespace

Tree GenerateDblp(const DblpOptions& options) {
  Rng rng(options.seed);
  // Vocabulary sizes scale sublinearly with the corpus so value
  // frequencies grow with data size (as in real bibliographies).
  const size_t scale = std::max<size_t>(options.target_bytes / 1024, 64);
  const size_t author_vocab =
      options.author_vocab ? options.author_vocab
                           : std::clamp<size_t>(scale / 6, 256, 4096);
  const size_t title_vocab =
      options.title_vocab ? options.title_vocab
                          : std::clamp<size_t>(scale / 8, 192, 3072);
  const size_t journal_vocab = 96;
  const size_t conference_vocab = 64;

  Vocabulary first_names(120, options.zipf_theta, WordStyle::kCapitalized,
                         rng);
  Vocabulary surnames(author_vocab, options.zipf_theta,
                      WordStyle::kCapitalized, rng);
  Vocabulary title_words(title_vocab, options.zipf_theta,
                         WordStyle::kLowercase, rng);
  Vocabulary journals(journal_vocab, 0.7, WordStyle::kCapitalized, rng);
  Vocabulary conferences(conference_vocab, 0.7, WordStyle::kCapitalized, rng);
  Vocabulary publishers(32, 0.7, WordStyle::kCapitalized, rng);
  Vocabulary schools(48, 0.7, WordStyle::kCapitalized, rng);

  const size_t community_count = std::clamp<size_t>(scale / 96, 8, 96);
  std::vector<Community> communities =
      MakeCommunities(rng, community_count, author_vocab, journal_vocab,
                      conference_vocab, title_vocab);
  ZipfSampler community_skew(community_count, 0.8);
  ZipfSampler member_skew(64, 1.0);
  ZipfSampler author_count_skew(5, 1.1);  // most records have few authors

  SizedBuilder b;
  const NodeId root = b.Root("dblp");
  while (b.bytes() < options.target_bytes) {
    const Community& com = communities[community_skew.Sample(rng)];
    const double kind = rng.NextDouble();
    const char* tag = kind < 0.55   ? "article"
                      : kind < 0.85 ? "inproceedings"
                      : kind < 0.95 ? "book"
                                    : "phdthesis";
    const NodeId record = b.Elem(root, tag);

    // Authors: 1-5 community members — duplicate sibling labels (the
    // multiset case) with correlated values (co-authors cluster).
    const int author_count =
        1 + static_cast<int>(author_count_skew.Sample(rng));
    for (int a = 0; a < author_count; ++a) {
      b.Field(record, "author",
              first_names.Sample(rng) + " " +
                  surnames.At(PickMember(rng, member_skew, com.authors)));
    }
    b.Field(record, "title",
            TitleFromTopics(rng, title_words, member_skew, com.topics, 3, 8));
    b.Field(record, "year",
            std::to_string(rng.UniformInt(com.year_lo, com.year_hi)));

    if (kind < 0.55) {  // article
      b.Field(record, "journal",
              "Journal of " +
                  journals.At(PickMember(rng, member_skew, com.journals)));
      b.Field(record, "volume", NumberString(rng, 1, 40));
      b.Field(record, "pages", PagesString(rng));
    } else if (kind < 0.85) {  // inproceedings
      b.Field(record, "booktitle",
              "Proc " +
                  conferences.At(PickMember(rng, member_skew, com.conferences)) +
                  " Conference");
      b.Field(record, "pages", PagesString(rng));
    } else if (kind < 0.95) {  // book
      b.Field(record, "publisher", publishers.Sample(rng) + " Press");
      b.Field(record, "isbn", NumberString(rng, 100000000, 999999999));
    } else {  // phdthesis
      b.Field(record, "school", schools.Sample(rng) + " University");
    }
    if (rng.Bernoulli(0.25)) {
      // Structured citations: note that "year" and "title" recur here
      // in a second context, as they do in real bibliographic XML —
      // this is what makes suffix subpaths strictly more frequent than
      // their root-anchored chains, so parses can fragment at interior
      // branch nodes (where MSH and MOSH diverge).
      const int cites = static_cast<int>(rng.UniformInt(1, 3));
      for (int c = 0; c < cites; ++c) {
        const NodeId cite = b.Elem(record, "cite");
        b.Field(cite, "label",
                "ref/" +
                    title_words.At(PickMember(rng, member_skew, com.topics)) +
                    "/" + NumberString(rng, 70, 99));
        b.Field(cite, "title",
                TitleFromTopics(rng, title_words, member_skew, com.topics, 2,
                                4));
        b.Field(cite, "year",
                std::to_string(rng.UniformInt(com.year_lo - 5, com.year_hi)));
      }
    }
  }
  return std::move(b).Finish();
}

Tree GenerateSwissProt(const SwissProtOptions& options) {
  Rng rng(options.seed);
  const size_t scale = std::max<size_t>(options.target_bytes / 1024, 64);

  Vocabulary first_names(96, options.zipf_theta, WordStyle::kCapitalized, rng);
  Vocabulary surnames(std::clamp<size_t>(scale / 6, 192, 2048),
                      options.zipf_theta, WordStyle::kCapitalized, rng);
  Vocabulary proteins(std::clamp<size_t>(scale / 8, 128, 1536),
                      options.zipf_theta, WordStyle::kCapitalized, rng);
  Vocabulary organisms(128, 0.7, WordStyle::kCapitalized, rng);
  Vocabulary taxa(96, 0.7, WordStyle::kCapitalized, rng);
  Vocabulary journals(72, 0.7, WordStyle::kCapitalized, rng);
  Vocabulary keywords(160, 0.9, WordStyle::kLowercase, rng);
  Vocabulary feature_types(24, 0.8, WordStyle::kLowercase, rng);
  Vocabulary title_words(std::clamp<size_t>(scale / 8, 128, 1536),
                         options.zipf_theta, WordStyle::kLowercase, rng);
  static const char kAmino[] = "ACDEFGHIKLMNPQRSTVWY";

  // Organism families: each organism has a fixed lineage (as in real
  // taxonomies) and correlated keywords, proteins, and labs (authors /
  // journals) studying it.
  struct Family {
    size_t organism;
    std::vector<size_t> lineage;    // taxa ranks, root-of-tree first
    std::vector<size_t> proteins;   // protein-name ranks
    std::vector<size_t> keywords;   // keyword ranks
    std::vector<size_t> topics;     // title-word ranks
    std::vector<size_t> authors;    // surname ranks
    std::vector<size_t> journals;   // journal ranks
  };
  const size_t family_count = std::clamp<size_t>(scale / 48, 8, 64);
  std::vector<Family> families(family_count);
  for (size_t f = 0; f < family_count; ++f) {
    Family& fam = families[f];
    fam.organism = f % organisms.size();
    const size_t depth = 3 + rng.Uniform(4);
    fam.lineage = DrawRanks(rng, taxa.size(), depth);
    fam.proteins = DrawRanks(rng, proteins.size(),
                             4 + rng.Uniform(std::max<size_t>(proteins.size() / family_count, 5)));
    fam.keywords = DrawRanks(rng, keywords.size(), 3 + rng.Uniform(5));
    fam.topics = DrawRanks(rng, title_words.size(),
                           8 + rng.Uniform(std::max<size_t>(
                                   title_words.size() / family_count, 9)));
    fam.authors = DrawRanks(rng, surnames.size(),
                            6 + rng.Uniform(std::max<size_t>(surnames.size() / family_count, 7)));
    fam.journals = DrawRanks(rng, journals.size(), 2 + rng.Uniform(2));
  }
  ZipfSampler family_skew(family_count, 0.8);
  ZipfSampler member_skew(64, 1.0);

  SizedBuilder b;
  const NodeId root = b.Root("sptr");
  while (b.bytes() < options.target_bytes) {
    const Family& fam = families[family_skew.Sample(rng)];
    const NodeId entry = b.Elem(root, "entry");
    b.Field(entry, "accession", "P" + NumberString(rng, 10000, 99999));
    const NodeId protein = b.Elem(entry, "protein");
    b.Field(protein, "name",
            proteins.At(PickMember(rng, member_skew, fam.proteins)) +
                " precursor");
    b.Field(protein, "evidence", NumberString(rng, 1, 5));

    const NodeId organism = b.Elem(entry, "organism");
    b.Field(organism, "name", organisms.At(fam.organism) + " " +
                                  taxa.At(fam.lineage.back()));
    const NodeId lineage = b.Elem(organism, "lineage");
    for (size_t t : fam.lineage) {
      b.Field(lineage, "taxon", taxa.At(t));
    }

    const int refs = static_cast<int>(rng.UniformInt(1, 4));
    for (int r = 0; r < refs; ++r) {
      const NodeId reference = b.Elem(entry, "reference");
      const NodeId author_list = b.Elem(reference, "authorList");
      const int nauth = static_cast<int>(rng.UniformInt(1, 6));
      for (int a = 0; a < nauth; ++a) {
        b.Field(author_list, "person",
                first_names.Sample(rng) + " " +
                    surnames.At(PickMember(rng, member_skew, fam.authors)));
      }
      const NodeId citation = b.Elem(reference, "citation");
      b.Field(citation, "title",
              TitleFromTopics(rng, title_words, member_skew, fam.topics, 4,
                              8));
      b.Field(citation, "journal",
              journals.At(PickMember(rng, member_skew, fam.journals)) +
                  " Journal");
      b.Field(citation, "year", NumberString(rng, 1975, 2000));
    }

    const int features = static_cast<int>(rng.UniformInt(0, 6));
    for (int f = 0; f < features; ++f) {
      const NodeId feature = b.Elem(entry, "feature");
      b.Field(feature, "type", feature_types.Sample(rng));
      const NodeId location = b.Elem(feature, "location");
      const int begin = static_cast<int>(rng.UniformInt(1, 400));
      b.Field(location, "begin", std::to_string(begin));
      b.Field(location, "end",
              std::to_string(begin + static_cast<int>(rng.UniformInt(1, 60))));
      if (rng.Bernoulli(0.5)) {
        b.Field(feature, "description",
                TitleFromTopics(rng, title_words, member_skew, fam.topics, 2,
                                5));
      }
    }

    const int nkey = static_cast<int>(rng.UniformInt(1, 5));
    for (int k = 0; k < nkey; ++k) {
      b.Field(entry, "keyword",
              keywords.At(PickMember(rng, member_skew, fam.keywords)));
    }

    const NodeId sequence = b.Elem(entry, "sequence");
    const int seq_len = static_cast<int>(rng.UniformInt(30, 80));
    std::string seq;
    seq.reserve(seq_len);
    for (int i = 0; i < seq_len; ++i) {
      seq += kAmino[rng.Uniform(sizeof(kAmino) - 1)];
    }
    b.Value(sequence, seq);
    b.Field(entry, "length", std::to_string(seq_len));
  }
  return std::move(b).Finish();
}

}  // namespace twig::data
