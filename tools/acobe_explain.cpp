// acobe-explain: renders saved detection provenance — an explain
// report ("acobe.explain.v1", from acobe-detect --explain-out) or a
// run ledger ("acobe.ledger.v1" JSONL, from --ledger-out) — as
// human-readable text, without recomputing anything. The analyst
// workflow: detect once on the analysis box, ship the two small JSON
// artifacts, and read them anywhere.
//
//   acobe-explain --in=FILE [--department=NAME]
//
// The artifact kind is auto-detected from its schema tag.
// --department restricts explain-report output to one department.
//
// Exit codes: 0 ok, 2 usage, 3 unreadable/malformed artifact.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_util.h"
#include "common/faults.h"
#include "common/json.h"

using namespace acobe;

namespace {

constexpr const char kUsage[] =
    "acobe-explain --in=FILE [--department=NAME] [--version]\n"
    "  FILE: an explain report (acobe-detect --explain-out) or a run\n"
    "  ledger (--ledger-out); the kind is auto-detected.\n"
    "exit codes: 0 ok, 2 usage, 3 bad artifact\n";

void PrintCells(const json::Value& cells, const char* indent) {
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const json::Value& cell = cells[c];
    const bool group = cell.GetString("component", "individual") == "group";
    std::string note;
    if (group) {
      note = " [group]";
    } else if (const json::Value* gi = cell.Get("group_input")) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " (group at %.2f)", gi->AsNumber());
      note = buf;
    }
    std::printf("%s%-18s %s %s err %.4f (%2.0f%%) val %.2f%s\n", indent,
                cell.GetString("feature", "?").c_str(),
                cell.GetString("frame", "?").c_str(),
                cell.GetString("day", "?").c_str(),
                cell.GetNumber("error", 0.0),
                100.0 * cell.GetNumber("share", 0.0),
                cell.GetNumber("input", 0.0), note.c_str());
  }
}

void PrintDrift(const json::Value& drift, const char* indent) {
  for (std::size_t i = 0; i < drift.size(); ++i) {
    const json::Value& aspect = drift[i];
    std::printf("%s%-8s %s", indent, aspect.GetString("aspect", "?").c_str(),
                aspect.GetBool("alert", false) ? "ALERT" : "ok   ");
    if (const json::Value* shifts = aspect.Get("shifts")) {
      for (std::size_t s = 0; s < shifts->size(); ++s) {
        const json::Value& shift = (*shifts)[s];
        std::printf("  q%g %+.1f%%", 100.0 * shift.GetNumber("q", 0.0),
                    100.0 * shift.GetNumber("rel_shift", 0.0));
      }
    }
    std::printf("\n");
  }
}

int RenderExplain(const json::Value& doc, const std::string& department) {
  const json::Value* build = doc.Get("build");
  const json::Value* dataset = doc.Get("dataset");
  std::printf("explain report (%s)\n", doc.GetString("schema", "?").c_str());
  if (build) {
    std::printf("  built: %s %s, simd %s\n",
                build->GetString("version", "?").c_str(),
                build->GetString("build_type", "?").c_str(),
                build->GetString("simd", "?").c_str());
  }
  if (dataset) {
    std::printf("  data:  %s (digest %.0f), %s train-end %s test-end %s\n",
                dataset->GetString("dir", "?").c_str(),
                dataset->GetNumber("digest", 0.0),
                dataset->GetString("start", "?").c_str(),
                dataset->GetString("train_end", "?").c_str(),
                dataset->GetString("test_end", "?").c_str());
  }
  const json::Value* departments = doc.Get("departments");
  if (!departments || !departments->is_array()) {
    std::fprintf(stderr, "acobe-explain: no departments array\n");
    return kExitBadInput;
  }
  for (std::size_t d = 0; d < departments->size(); ++d) {
    const json::Value& dept = (*departments)[d];
    const std::string name = dept.GetString("name", "?");
    if (!department.empty() && name != department) continue;
    std::printf("\n=== %s (%.0f users, score digest %.0f) ===\n", name.c_str(),
                dept.GetNumber("members", 0.0),
                dept.GetNumber("score_digest", 0.0));
    if (const json::Value* degraded = dept.Get("degraded_aspects")) {
      for (std::size_t i = 0; i < degraded->size(); ++i) {
        std::printf("  WARNING: aspect %s diverged; ranked without it\n",
                    (*degraded)[i].AsString().c_str());
      }
    }
    if (const json::Value* list = dept.Get("list")) {
      for (std::size_t i = 0; i < list->size(); ++i) {
        const json::Value& entry = (*list)[i];
        std::printf("%3.0f. %-10s priority %.0f\n",
                    entry.GetNumber("rank", 0.0),
                    entry.GetString("user", "?").c_str(),
                    entry.GetNumber("priority", 0.0));
      }
    }
    const json::Value* attributions = dept.Get("attributions");
    if (attributions && attributions->size() > 0) {
      std::printf("\n  why (top reconstruction-error cells):\n");
      for (std::size_t i = 0; i < attributions->size(); ++i) {
        const json::Value& ua = (*attributions)[i];
        std::printf("     %s:\n", ua.GetString("user", "?").c_str());
        if (const json::Value* aspects = ua.Get("aspects")) {
          for (std::size_t a = 0; a < aspects->size(); ++a) {
            const json::Value& aa = (*aspects)[a];
            std::printf(
                "       %-8s peak %s score %.3f (group share %.0f%%)\n",
                aa.GetString("aspect", "?").c_str(),
                aa.GetString("peak_day", "?").c_str(),
                aa.GetNumber("peak_score", 0.0),
                100.0 * aa.GetNumber("group_error_fraction", 0.0));
            if (const json::Value* cells = aa.Get("cells")) {
              PrintCells(*cells, "         ");
            }
          }
        }
      }
    }
    const json::Value* drift = dept.Get("drift");
    if (drift && drift->size() > 0) {
      std::printf("\n  score drift vs training window:\n");
      PrintDrift(*drift, "    ");
    }
  }
  return 0;
}

int RenderLedger(const std::vector<json::Value>& events) {
  bool complete = false;
  for (const json::Value& event : events) {
    const std::string type = event.GetString("event", "?");
    if (type == "manifest") {
      std::printf("ledger (%s) tool %s\n",
                  event.GetString("schema", "?").c_str(),
                  event.GetString("tool", "?").c_str());
      if (const json::Value* build = event.Get("build")) {
        std::printf("  built: %s %s, simd %s, telemetry %s",
                    build->GetString("version", "?").c_str(),
                    build->GetString("build_type", "?").c_str(),
                    build->GetString("simd", "?").c_str(),
                    build->GetBool("telemetry", false) ? "on" : "off");
        const std::string backend = build->GetString("nn_backend", "");
        if (!backend.empty()) std::printf(", nn %s", backend.c_str());
        std::printf("\n");
      }
      std::printf(
          "  run:   %s, train-end %s, test-end %s, seed %.0f, "
          "dataset digest %.0f\n",
          event.GetString("in", "?").c_str(),
          event.GetString("train_end", "?").c_str(),
          event.GetString("test_end", "?").c_str(),
          event.GetNumber("seed", 0.0), event.GetNumber("dataset_digest", 0.0));
    } else if (type == "aspect_trained") {
      std::printf(
          "  [%s] aspect %-8s %s attempts %.0f epochs %.0f final loss %.5f\n",
          event.GetString("department", "?").c_str(),
          event.GetString("aspect", "?").c_str(),
          event.GetBool("resumed", false)
              ? "resumed"
              : (event.GetBool("ok", false) ? "trained" : "FAILED "),
          event.GetNumber("attempts", 0.0), event.GetNumber("epochs", 0.0),
          event.GetNumber("final_loss", 0.0));
    } else if (type == "detection") {
      std::printf("  [%s] detection over %.0f members, score digest %.0f\n",
                  event.GetString("department", "?").c_str(),
                  event.GetNumber("members", 0.0),
                  event.GetNumber("score_digest", 0.0));
      if (const json::Value* list = event.Get("list")) {
        for (std::size_t i = 0; i < list->size(); ++i) {
          std::printf("    %2zu. %-10s priority %.0f\n", i + 1,
                      (*list)[i].GetString("user", "?").c_str(),
                      (*list)[i].GetNumber("priority", 0.0));
        }
      }
    } else if (type == "quality") {
      std::printf("  [%s] quality: AUC %.3f AP %.3f (%.0f positives of %.0f)",
                  event.GetString("model", "?").c_str(),
                  event.GetNumber("auc", 0.0),
                  event.GetNumber("average_precision", 0.0),
                  event.GetNumber("positives", 0.0),
                  event.GetNumber("list_size", 0.0));
      if (const json::Value* p_at = event.Get("precision_at")) {
        if (p_at->is_object()) {
          for (const auto& [k, v] : p_at->AsObject()) {
            std::printf("  P@%s %.2f", k.c_str(), v.AsNumber());
          }
        }
      }
      std::printf("\n");
    } else if (type == "drift") {
      std::printf("  [%s] drift:\n",
                  event.GetString("department", "?").c_str());
      if (const json::Value* aspects = event.Get("aspects")) {
        PrintDrift(*aspects, "    ");
      }
    } else if (type == "run_complete") {
      complete = true;
      std::printf("  run complete: %.0f department(s), %.0f event(s)\n",
                  event.GetNumber("departments", 0.0),
                  event.GetNumber("events", 0.0));
    }
  }
  if (!complete) {
    std::fprintf(stderr,
                 "acobe-explain: WARNING: no run_complete event — the run was "
                 "interrupted or the ledger is truncated\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path, department;
  cli::Flags flags("acobe-explain", kUsage);
  flags.Str("--in", &in_path, cli::kRequired).Str("--department", &department);
  flags.Parse(argc, argv);

  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "acobe-explain: cannot read %s\n", in_path.c_str());
    return kExitBadInput;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // Auto-detect: an explain report is one JSON document tagged
  // "acobe.explain.v1"; anything else JSON-ish is treated as ledger
  // JSONL (whose first event carries "acobe.ledger.v1").
  try {
    try {
      const json::Value doc = json::Value::Parse(text);
      if (doc.GetString("schema", "") == "acobe.explain.v1") {
        return RenderExplain(doc, department);
      }
      if (doc.GetString("event", "") == "manifest") {  // 1-line ledger
        return RenderLedger({doc});
      }
      std::fprintf(stderr, "acobe-explain: %s: unrecognized schema\n",
                   in_path.c_str());
      return kExitBadInput;
    } catch (const json::ParseError&) {
      // Not a single document; try line-delimited (the ledger form).
      return RenderLedger(json::ParseLines(text));
    }
  } catch (const json::ParseError& e) {
    std::fprintf(stderr, "acobe-explain: %s: %s\n", in_path.c_str(), e.what());
    return kExitBadInput;
  } catch (const std::logic_error& e) {
    std::fprintf(stderr, "acobe-explain: %s: malformed artifact: %s\n",
                 in_path.c_str(), e.what());
    return kExitBadInput;
  }
}
