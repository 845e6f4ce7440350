// The numbers EXPERIMENTS.md cites against the rows of BENCH_repro.json.
//
// EXPERIMENTS.md quotes the reproduction's tables by hand.  Each entry of
// kCited names a section (the "## E9 — ..." heading), the row the number
// comes from (key=value pairs the row holds, separated by ';') and the
// phrase the section prints it in.  In a phrase, {field} stands for the
// row's value of `field` and {} for any number another entry checks.  A
// cited number must equal its row's value rounded to the places the prose
// prints ("4.6" cites 4.58), so a re-recorded row that moves a quoted
// number fails here until the prose follows.  Numbers derived from several
// rows and the paper's own numbers have no entry.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Cited {
  const char* section;
  const char* row;
  const char* phrase;
};

const Cited kCited[] = {
    // E2 — Table I.
    {"E2", "app=blackscholes",
     "| blackscholes | {paper_gb} GB | {measured_gb} GB | {regions} |"},
    {"E2", "app=kmeans",
     "| KMeans | {paper_gb} GB | {measured_gb} GB | {regions} |"},
    {"E2", "app=lightgbm",
     "| LightGBM | {paper_gb} GB | {measured_gb} GB | {regions} |"},
    {"E2", "app=matrixmul",
     "| MatrixMul | {paper_gb} GB | {measured_gb} GB | {regions} |"},
    {"E2", "app=mixedgemm",
     "| MixedGEMM | {paper_gb} GB | {measured_gb} GB | {regions} |"},
    {"E2", "app=pagerank",
     "| PageRank | {paper_gb} GB | {measured_gb} GB | {regions} |"},
    {"E2", "app=tpch-q1",
     "| TPC-H-1 | {paper_gb} GB | {measured_gb} GB | {regions} |"},
    {"E2", "app=tpch-q6",
     "| TPC-H-6 | {paper_gb} GB | {measured_gb} GB | {regions} |"},
    {"E2", "app=tpch-q14",
     "| TPC-H-14 | {paper_gb} GB | {measured_gb} GB | {regions} |"},
    {"E2", "app=sparsemv",
     "| SparseMV (§V, not in Table I) | — | {measured_gb} GB | {regions} |"},
    // E3 — Figure 4.
    {"E3", "app=blackscholes",
     "| blackscholes | {baseline_s} | {directed_x}× | {activecpp_x}× | {plan} |"},
    {"E3", "app=kmeans",
     "| kmeans | {baseline_s} | {directed_x}× | {activecpp_x}× | {plan} |"},
    {"E3", "app=lightgbm",
     "| lightgbm | {baseline_s} | {directed_x}× | {activecpp_x}× | {plan} |"},
    {"E3", "app=matrixmul",
     "| matrixmul | {baseline_s} | {directed_x}× | {activecpp_x}× | {plan} |"},
    {"E3", "app=mixedgemm",
     "| mixedgemm | {baseline_s} | {directed_x}× | {activecpp_x}× | {plan} |"},
    {"E3", "app=pagerank",
     "| pagerank | {baseline_s} | {directed_x}× | {activecpp_x}× | {plan} |"},
    {"E3", "app=tpch-q1",
     "| tpch-q1 | {baseline_s} | {directed_x}× | {activecpp_x}× | {plan} |"},
    {"E3", "app=tpch-q6",
     "| tpch-q6 | {baseline_s} | {directed_x}× | {activecpp_x}× | {plan} |"},
    {"E3", "app=tpch-q14",
     "| tpch-q14 | {baseline_s} | {directed_x}× | {activecpp_x}× | {plan} |"},
    {"E3", "",
     "| **mean** | | **{mean_directed_x}×** | **{mean_activecpp_x}×** | |"},
    {"E3", "app=tpch-q6", "Baselines span {baseline_s}–{} s"},
    {"E3", "app=kmeans", "Baselines span {}–{baseline_s} s"},
    {"E3", "app=tpch-q6", "({overhead_s}–{} s; four sample runs"},
    {"E3", "app=pagerank", "({}–{overhead_s} s; four sample runs"},
    // E1 — Figure 2.
    {"E1", "avail_pct=100", "| 100% | {mean}× |"},
    {"E1", "avail_pct=80", "| 80% | {mean}× |"},
    {"E1", "avail_pct=70", "| 70% | {mean}× |"},
    {"E1", "avail_pct=60", "| 60% | {mean}× |"},
    {"E1", "avail_pct=10", "| 10% | {mean}× |"},
    {"E1", "", "Measured: {at_100_mean}× at 100%"},
    {"E1", "",
     "the crossover between {first_below_1x_pct}% and "
     "{last_at_or_above_1x_pct}%"},
    // E4 — Figure 5.
    {"E4", "avail_pct=10",
     "migration advantage: 2.82× → **≈{migration_advantage_x}×**"},
    {"E4", "avail_pct=10;app=tpch-q1", "({with_x}–{}× per app)"},
    {"E4", "avail_pct=10;app=mixedgemm", "({}–{with_x}× per app)"},
    {"E4", "avail_pct=10", "max {max_loss_without_pct}%**"},
    // E5 — estimation accuracy.
    {"E5", "", "over-estimated by up to **{csr_max_x}×**"},
    {"E5", "app=pagerank;kind=csr", "PageRank {ratio}×"},
    {"E5", "app=sparsemv;kind=csr", "SparseMV {ratio}×"},
    {"E5", "", "excluding the CSR-tainted lines: **{geomean_error_pct}%**"},
    // E6 — language-runtime optimisations.
    {"E6", "", "| interpreted | +41% | **{mean_interp_pct}%** |"},
    {"E6", "",
     "| Cython-compiled (boundary copies remain) | +20% | "
     "**{mean_compiled_pct}%** |"},
    {"E6", "",
     "| + redundant-memory-operation elimination | ≈+1% | "
     "**{mean_nocopy_pct}%** |"},
    // E7 — Equation 1 consistency.
    {"E7", "app=tpch-q14", "(S = {s} s for TPC-H-14"},
    {"E7", "app=kmeans", "up to {s} s for KMeans)"},
    // E9 — platform-constant sensitivity.
    {"E9", "app=tpch-q6;link_gbps=2.5", "({speedup}× at {link_gbps} GB/s →"},
    {"E9", "app=tpch-q6;link_gbps=12.0",
     "→ {speedup}× at {link_gbps} GB/s for Q6)"},
    {"E9", "app=tpch-q6;ipc_vs_host=0.35",
     "drops to ≤{ipc_vs_host} (plan goes to {csd_lines} CSD lines"},
    {"E9", "app=tpch-q6;ipc_vs_host=0.20", "never worse than ~{speedup}×"},
    // E10 — the other dynamics.
    {"E10", "host_avail_pct=100", "grows from {speedup}× to {}×"},
    {"E10", "host_avail_pct=25", "grows from {}× to {speedup}×"},
    {"E10", "",
     "(write amplification {write_amplification}) consumes {gc_pct}% of "
     "internal bandwidth"},
    {"E10", "gc_pressure_pct=0",
     "static-ISP speedup from {speedup}× to {}×"},
    {"E10", "gc_pressure_pct=78",
     "static-ISP speedup from {}× to {speedup}×"},
    {"E10", "migrated=no", "the stale plan runs at {speedup}×"},
    {"E10", "migrated=yes", "migration recovers to {speedup}×"},
    // E11 — work sharing, monitor threshold, dataset scaling.
    {"E11", "query=tpch-q1;avail_pct=100", "(≈{work_share_x}× at 100%)"},
    {"E11", "query=tpch-q1;avail_pct=10", "{work_share_x}–{}× even at 10%"},
    {"E11", "query=tpch-q6;avail_pct=10", "{}–{work_share_x}× even at 10%"},
    {"E11", "query=tpch-q1;avail_pct=10",
     "the static plan collapses to {static_x}×"},
    {"E11", "app=tpch-q6;scale=0.031", "(Q6: {speedup}× at 1/32 of Table I"},
    {"E11", "app=tpch-q6;scale=2.000", "→ {speedup}× at 2×)"},
    // E12 — the three-way projection.
    {"E12", "app=tpch-q6;placements=CCh",
     "at ≤{gpu_speedup}× effective speedup the CSD reclaims the scans"},
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs of blanks and line breaks become one space, so a phrase matches
/// however the prose wraps.
std::string squeeze(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const bool blank = c == ' ' || c == '\n' || c == '\t';
    if (blank && (out.empty() || out.back() == ' ')) continue;
    out += blank ? ' ' : c;
  }
  return out;
}

/// Each "## Ek — ..." section's text, by its id.
std::map<std::string, std::string> sections(const std::string& doc) {
  std::map<std::string, std::string> out;
  std::string id;
  std::istringstream in(doc);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) {
      id = line.substr(3, line.find(' ', 3) - 3);
      continue;
    }
    if (!id.empty()) out[id] += line + '\n';
  }
  for (auto& [key, text] : out) text = squeeze(text);
  return out;
}

/// A flat JSON row: each key's value as written, strings unquoted.
using Row = std::map<std::string, std::string>;

Row parse_row(const std::string& line) {
  Row row;
  std::size_t i = 1;  // past '{'
  while (i < line.size() && line[i] == '"') {
    const std::size_t key_end = line.find('"', i + 1);
    if (key_end == std::string::npos) break;
    const std::string key = line.substr(i + 1, key_end - i - 1);
    i = key_end + 2;  // past '":'
    std::string value;
    if (i < line.size() && line[i] == '"') {
      for (++i; i < line.size() && line[i] != '"'; ++i) {
        if (line[i] == '\\') ++i;
        value += line[i];
      }
      ++i;
    } else {
      const std::size_t end = line.find_first_of(",}", i);
      value = line.substr(i, end - i);
      i = end;
    }
    row[key] = value;
    i += 1;  // past ',' or '}'
  }
  return row;
}

std::string escape(const std::string& literal) {
  std::string out;
  for (const char c : literal) {
    if (std::string("\\^$.*+?()[]{}|").find(c) != std::string::npos) {
      out += '\\';
    }
    out += c;
  }
  return out;
}

/// `cited` (as the prose prints it) equals `value` rounded to its places.
bool same_number(std::string cited, const std::string& value) {
  if (!cited.empty() && cited[0] == '+') cited.erase(0, 1);
  const std::size_t dot = cited.find('.');
  const int places =
      dot == std::string::npos ? 0 : static_cast<int>(cited.size() - dot - 1);
  char rounded[64];
  std::snprintf(rounded, sizeof rounded, "%.*f", places, std::stod(value));
  return cited == rounded;
}

/// Every way `doc` departs from `rows`, one message per entry of kCited.
std::vector<std::string> prose_drift(const std::string& doc,
                                     const std::vector<std::string>& rows) {
  const auto text = sections(doc);
  std::vector<Row> parsed;
  for (const auto& line : rows) parsed.push_back(parse_row(line));
  const std::regex field("\\{([a-z0-9_]*)\\}");
  const std::string number = "([-+]?[0-9]+(?:\\.[0-9]+)?)";

  std::vector<std::string> drift;
  for (const auto& cited : kCited) {
    const std::string where =
        std::string(cited.section) + " \"" + cited.phrase + "\": ";
    // The fields the phrase names, in order.
    std::vector<std::string> fields;
    const std::string phrase = squeeze(cited.phrase);
    for (std::sregex_iterator it(phrase.begin(), phrase.end(), field), end;
         it != end; ++it) {
      if (!(*it)[1].str().empty()) fields.push_back((*it)[1]);
    }
    // The one row of the section that holds the selector and every field.
    const Row* row = nullptr;
    int matches = 0;
    for (const auto& r : parsed) {
      bool ok = r.count("exp") && r.at("exp") == cited.section;
      std::istringstream pairs(cited.row);
      for (std::string pair; ok && std::getline(pairs, pair, ';');) {
        const std::size_t eq = pair.find('=');
        const auto it = r.find(pair.substr(0, eq));
        ok = it != r.end() && it->second == pair.substr(eq + 1);
      }
      for (const auto& f : fields) ok = ok && r.count(f) > 0;
      if (ok) {
        row = &r;
        ++matches;
      }
    }
    if (matches != 1) {
      drift.push_back(where + std::to_string(matches) + " rows match [" +
                      cited.row + "]");
      continue;
    }
    // The phrase as a pattern: string fields literally, numbers captured.
    std::string pattern;
    std::vector<std::string> captured;  // the field of each capture, or ""
    std::size_t last = 0;
    for (std::sregex_iterator it(phrase.begin(), phrase.end(), field), end;
         it != end; ++it) {
      pattern += escape(phrase.substr(last, it->position() - last));
      last = it->position() + it->length();
      const std::string name = (*it)[1];
      const auto value = name.empty() ? row->end() : row->find(name);
      const bool is_string =
          value != row->end() && !value->second.empty() &&
          (std::isalpha(static_cast<unsigned char>(value->second[0])) != 0);
      if (is_string) {
        pattern += escape(value->second);
      } else {
        pattern += number;
        captured.push_back(name);
      }
    }
    pattern += escape(phrase.substr(last));
    std::smatch m;
    const auto section = text.find(cited.section);
    if (section == text.end() ||
        !std::regex_search(section->second, m, std::regex(pattern))) {
      drift.push_back(where + "phrase not found");
      continue;
    }
    for (std::size_t c = 0; c < captured.size(); ++c) {
      if (captured[c].empty()) continue;
      const std::string& value = row->at(captured[c]);
      if (!same_number(m[c + 1], value)) {
        drift.push_back(where + "cites " + m[c + 1].str() + " for " +
                        captured[c] + ", the row has " + value);
      }
    }
  }
  return drift;
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

const std::string kSource = ISP_SOURCE_DIR;

TEST(ExperimentsProse, CitedNumbersMatchTheirRows) {
  const auto drift =
      prose_drift(read_file(kSource + "/EXPERIMENTS.md"),
                  lines(read_file(kSource + "/BENCH_repro.json")));
  for (const auto& d : drift) ADD_FAILURE() << d;
}

// The check can fail: one cited number edited is reported, and nothing else.
TEST(ExperimentsProse, AnEditedNumberIsReported) {
  auto doc = read_file(kSource + "/EXPERIMENTS.md");
  const std::string was = "1.42× at 2.5 GB/s";
  const std::size_t at = doc.find(was);
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, 4, "1.43");
  const auto drift =
      prose_drift(doc, lines(read_file(kSource + "/BENCH_repro.json")));
  ASSERT_EQ(drift.size(), 1u);
  EXPECT_NE(drift[0].find("cites 1.43 for speedup, the row has 1.42"),
            std::string::npos)
      << drift[0];
}

}  // namespace
