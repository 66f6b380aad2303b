// fhg_cli — run any scheduler on any graph from the command line.
//
// Usage:
//   fhg_cli --graph <spec> --scheduler <name> [--horizon N] [--seed S]
//           [--print-holidays K] [--code gamma|delta|omega|unary]
//
// Graph specs (generator:params) or a file path (.col = DIMACS, else edge
// list):
//   gnp:n,p            Erdős–Rényi            ba:n,m    Barabási–Albert
//   grid:r,c           2-D grid               clique:n  complete graph
//   star:n             star                   cycle:n   cycle
//   tree:n             random tree            regular:n,d  random d-regular
//   bipartite:a,b,p    random bipartite
//
// Schedulers: round-robin | trivial | phased-greedy | prefix | degree-bound
//             | fcfg
//
// Prints the paper-style per-degree table plus audits, and optionally the
// first K happy sets.
//
// Examples:
//   fhg_cli --graph ba:500,3 --scheduler degree-bound
//   fhg_cli --graph gnp:200,0.05 --scheduler prefix --code omega --horizon 4096
//   fhg_cli --graph family.col --scheduler phased-greedy --print-holidays 10

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "fhg/analysis/stats.hpp"
#include "fhg/analysis/table.hpp"
#include "fhg/coloring/dsatur.hpp"
#include "fhg/coloring/greedy.hpp"
#include "fhg/core/degree_bound.hpp"
#include "fhg/core/driver.hpp"
#include "fhg/core/fcfg.hpp"
#include "fhg/core/phased_greedy.hpp"
#include "fhg/core/prefix_code_scheduler.hpp"
#include "fhg/core/round_robin.hpp"
#include "fhg/graph/generators.hpp"
#include "fhg/graph/io.hpp"

#include "cli_options.hpp"

namespace {

using namespace fhg;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "fhg_cli: " << error << "\n"
            << "usage: fhg_cli --graph <spec|file> --scheduler <name> [--horizon N]\n"
            << "               [--seed S] [--code omega|gamma|delta|unary] [--print-holidays K]\n"
            << "graph specs: gnp:n,p  ba:n,m  grid:r,c  clique:n  star:n  cycle:n\n"
            << "             tree:n  regular:n,d  bipartite:a,b,p  (or a file path)\n"
            << "schedulers:  round-robin trivial phased-greedy prefix degree-bound fcfg\n";
  std::exit(2);
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> parts;
  std::stringstream stream(s);
  std::string part;
  while (std::getline(stream, part, delim)) {
    parts.push_back(part);
  }
  return parts;
}

graph::Graph make_graph(const std::string& spec, std::uint64_t seed) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    return graph::load_graph_file(spec);
  }
  const std::string kind = spec.substr(0, colon);
  const auto args = split(spec.substr(colon + 1), ',');
  const auto arg = [&](std::size_t i) -> std::uint64_t {
    if (i >= args.size()) {
      usage("graph spec '" + spec + "' is missing parameter " + std::to_string(i + 1));
    }
    return std::strtoull(args[i].c_str(), nullptr, 10);
  };
  const auto farg = [&](std::size_t i) -> double {
    if (i >= args.size()) {
      usage("graph spec '" + spec + "' is missing parameter " + std::to_string(i + 1));
    }
    return std::strtod(args[i].c_str(), nullptr);
  };
  if (kind == "gnp") {
    return graph::gnp(static_cast<graph::NodeId>(arg(0)), farg(1), seed);
  }
  if (kind == "ba") {
    return graph::barabasi_albert(static_cast<graph::NodeId>(arg(0)),
                                  static_cast<std::uint32_t>(arg(1)), seed);
  }
  if (kind == "grid") {
    return graph::grid2d(static_cast<graph::NodeId>(arg(0)),
                         static_cast<graph::NodeId>(arg(1)));
  }
  if (kind == "clique") {
    return graph::clique(static_cast<graph::NodeId>(arg(0)));
  }
  if (kind == "star") {
    return graph::star(static_cast<graph::NodeId>(arg(0)));
  }
  if (kind == "cycle") {
    return graph::cycle(static_cast<graph::NodeId>(arg(0)));
  }
  if (kind == "tree") {
    return graph::random_tree(static_cast<graph::NodeId>(arg(0)), seed);
  }
  if (kind == "regular") {
    return graph::random_regular(static_cast<graph::NodeId>(arg(0)),
                                 static_cast<std::uint32_t>(arg(1)), seed);
  }
  if (kind == "bipartite") {
    return graph::random_bipartite(static_cast<graph::NodeId>(arg(0)),
                                   static_cast<graph::NodeId>(arg(1)), farg(2), seed);
  }
  usage("unknown graph kind '" + kind + "'");
}

coding::CodeFamily parse_code(const std::string& name) {
  if (name == "omega") {
    return coding::CodeFamily::kEliasOmega;
  }
  if (name == "delta") {
    return coding::CodeFamily::kEliasDelta;
  }
  if (name == "gamma") {
    return coding::CodeFamily::kEliasGamma;
  }
  if (name == "unary") {
    return coding::CodeFamily::kUnary;
  }
  usage("unknown code family '" + name + "'");
}

std::unique_ptr<core::Scheduler> make_scheduler(const std::string& name, const graph::Graph& g,
                                                coding::CodeFamily code, std::uint64_t seed) {
  if (name == "round-robin") {
    return std::make_unique<core::RoundRobinColorScheduler>(
        g, coloring::greedy_color(g, coloring::Order::kLargestFirst));
  }
  if (name == "trivial") {
    return std::make_unique<core::RoundRobinColorScheduler>(g, coloring::sequential_color(g));
  }
  if (name == "phased-greedy") {
    return std::make_unique<core::PhasedGreedyScheduler>(
        g, coloring::greedy_color(g, coloring::Order::kLargestFirst));
  }
  if (name == "prefix") {
    return std::make_unique<core::PrefixCodeScheduler>(g, coloring::dsatur_color(g), code);
  }
  if (name == "degree-bound") {
    return std::make_unique<core::DegreeBoundScheduler>(g);
  }
  if (name == "fcfg") {
    return std::make_unique<core::FirstComeFirstGrabScheduler>(g, seed);
  }
  usage("unknown scheduler '" + name + "'");
}

std::uint64_t degree_bucket_local(std::uint32_t d) {
  if (d < 8) {
    return d;
  }
  std::uint64_t b = 8;
  while (b * 2 <= d) {
    b *= 2;
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  static const std::set<std::string> known{"graph", "scheduler", "horizon",
                                           "seed",  "code",      "print-holidays"};
  auto options = examples::parse_options(argc, argv, 1, known, "", usage);
  if (!options.count("graph") || !options.count("scheduler")) {
    usage("--graph and --scheduler are required");
  }
  const std::uint64_t seed =
      options.count("seed") ? std::strtoull(options["seed"].c_str(), nullptr, 10) : 1;
  const std::uint64_t horizon =
      options.count("horizon") ? std::strtoull(options["horizon"].c_str(), nullptr, 10) : 2048;
  const std::uint64_t print_holidays =
      options.count("print-holidays")
          ? std::strtoull(options["print-holidays"].c_str(), nullptr, 10)
          : 0;
  const coding::CodeFamily code =
      parse_code(options.count("code") ? options["code"] : std::string("omega"));

  const graph::Graph g = make_graph(options["graph"], seed);
  std::cout << "graph: " << options["graph"] << "  n=" << g.num_nodes()
            << " m=" << g.num_edges() << " Delta=" << g.max_degree() << "\n";

  auto scheduler = make_scheduler(options["scheduler"], g, code, seed);

  if (print_holidays > 0) {
    for (std::uint64_t t = 1; t <= print_holidays; ++t) {
      const auto happy = scheduler->next_holiday();
      std::cout << "holiday " << t << ":";
      for (const graph::NodeId v : happy) {
        std::cout << ' ' << v;
      }
      std::cout << '\n';
    }
  }

  const auto report = core::run_schedule(*scheduler, {.horizon = horizon});
  analysis::Table table({"degree", "nodes", "worst gap", "mean gap bound", "appearances (mean)"});
  std::vector<std::uint64_t> buckets;
  std::vector<double> gaps;
  std::vector<double> appearances;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    buckets.push_back(degree_bucket_local(g.degree(v)));
    gaps.push_back(static_cast<double>(report.max_gap_with_tail[v]));
    appearances.push_back(static_cast<double>(report.appearances[v]));
  }
  const auto gap_rows = analysis::group_stats(buckets, gaps);
  const auto app_rows = analysis::group_stats(buckets, appearances);
  for (std::size_t i = 0; i < gap_rows.size(); ++i) {
    std::uint64_t bound_sum = 0;
    std::uint64_t bound_count = 0;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (buckets[v] == gap_rows[i].key) {
        if (const auto bound = scheduler->gap_bound(v)) {
          bound_sum += *bound;
          ++bound_count;
        }
      }
    }
    table.row()
        .add(gap_rows[i].key)
        .add(static_cast<std::uint64_t>(gap_rows[i].count))
        .add(static_cast<std::uint64_t>(gap_rows[i].max))
        .add(bound_count == 0 ? std::string("-")
                              : std::to_string(bound_sum / bound_count))
        .add(app_rows[i].mean, 1);
  }
  table.print(std::cout);
  std::cout << "scheduler: " << scheduler->name() << "  horizon: " << horizon
            << "  periodic: " << (scheduler->perfectly_periodic() ? "yes" : "no")
            << "\naudit: independence " << (report.independence_ok ? "OK" : "VIOLATED")
            << ", guarantees " << (report.bounds_respected ? "OK" : "VIOLATED") << '\n';
  return report.independence_ok && report.bounds_respected ? 0 : 1;
}
