// perfbench: the repository's benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--tiny]
//
// Runs one workload and prints, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. perfbench/run.py builds
// this binary and is the command BENCHMARK.json names.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<spgemm-insert|spgemm-general|ingest-triangles|ingest-serve> "
                 "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] "
                 "[--tiny]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") o.workload = v;
        else if (a == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds") o.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace") o.trace = v == "1";
        else if (a == "--workdir") o.workdir = v;
        else usage(("unknown argument " + a).c_str());
    }
    if (o.workload.empty()) usage("--workload is required");
    if (!(o.seconds > 0)) usage("--seconds must be positive");
    if (o.workdir.empty()) o.workdir = "perfbench-work";
    return o;
}

void print_result(const Outcome& out, bool trace) {
    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    const auto& rows = trace ? out.per_layer.rows() : out.end_to_end.rows();
    for (std::size_t k = 0; k < rows.size(); ++k) {
        char value[64];
        const double v = std::isfinite(rows[k].value) ? rows[k].value : 0.0;
        std::snprintf(value, sizeof value, "%.17g", v);
        if (k > 0) json += ", ";
        json += "\"" + rows[k].name + "\": {\"value\": " + value +
                ", \"unit\": \"" + rows[k].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    try {
        Outcome out;
        if (opt.workload == "spgemm-insert") out = perfbench::run_spgemm_insert(opt);
        else if (opt.workload == "spgemm-general") out = perfbench::run_spgemm_general(opt);
        else if (opt.workload == "ingest-triangles") out = perfbench::run_ingest_triangles(opt);
        else if (opt.workload == "ingest-serve") out = perfbench::run_ingest_serve(opt);
        else usage(("unknown workload " + opt.workload).c_str());
        std::fflush(stderr);
        print_result(out, opt.trace);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
