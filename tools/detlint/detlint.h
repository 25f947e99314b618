// detlint — a determinism & model-safety linter for this repository.
//
// Every guarantee the reproduction makes (byte-identical parallel==serial
// campaign digests, replayable minimized repros, coverage/corpus
// determinism) dies silently the moment a model system or the NEAT layer
// picks up a nondeterminism source — wall clock, unseeded RNG, hash-order
// iteration feeding a trace or digest — or drops a protocol message on the
// floor, the class of silent partition-time omission the source paper
// catalogs (OSDI'18 Section 5). detlint enforces those conventions
// mechanically: a lightweight C++ tokenizer, a set of rules over the token
// stream (plus one whole-project rule), inline suppressions with mandatory
// reasons, and a committed baseline for grandfathered findings.
//
// Rule catalog (ids are stable; see README "detlint" section):
//   raw-rand            rand()/srand()/std::random_device & friends — all
//                       randomness must flow through sim::Rng substreams
//   wall-clock          time()/clock()/std::chrono::{system,steady,high_
//                       resolution}_clock etc. — virtual time only
//   env-read            getenv/setenv outside src/neat/campaign.cc (the
//                       campaign knobs NEAT_THREADS/NEAT_SEEDS/... are the
//                       one sanctioned environment surface)
//   thread-primitive    std::thread/mutex/atomic/... or pthread_* inside
//                       src/sim or src/systems — the sim kernel and model
//                       systems are single-threaded by contract; only the
//                       campaign layer may spawn workers
//   static-local        mutable function-local statics in src/sim,
//                       src/cluster, src/systems — cross-instance state
//                       leaks between campaign workers
//   unordered-iteration iteration over std::unordered_{map,set,...} in a
//                       function that also touches a TraceLog, CoverageMap,
//                       or digest — hash order is not part of the
//                       deterministic contract
//   address-derived-id  reinterpret_cast to an integral type, or any use
//                       of uintptr_t/intptr_t, in src/ — trace record ids
//                       and causal edges must be stable log positions;
//                       an address-derived id breaks fork/replay
//                       byte-identity
//   digest-nonconst     ISystem::StateDigest declarations/definitions not
//                       marked const — a digest probe must be read-only
//   snapshot-nonconst   Snapshot() declarations/definitions not marked
//                       const — capturing a fork snapshot must not perturb
//                       the run it captures (neat/system.h contract)
//   unhandled-message   a net::Message subclass (final or not) with no
//                       net::As or dynamic_cast dispatch site anywhere in
//                       the tree — the silent unhandled-protocol-event
//                       omission
//   bad-suppression     a `detlint: allow(...)` comment without a reason
//
// Structural rules (index.h builds a repo-wide class/member model first):
//   snapshot-field-coverage  a mutable data member of a class with a
//                       Snapshot/Restore (or CaptureState/RestoreState,
//                       CaptureKernel/RestoreKernel) pair that is not
//                       referenced in BOTH functions — the one-field-left-
//                       out-of-the-state-transfer omission that breaks
//                       fork==replay byte-identity. const, reference, raw-
//                       pointer, and static members are exempt (wiring or
//                       immutable, not per-run state)
//   override-completeness    an ISystem subclass overriding Snapshot must
//                       also override Restore and StateDigest (and vice
//                       versa); a CaseRunner subclass must pair
//                       Snapshot/Restore — a capture with no restore path
//                       is dead weight, a restore with no capture is a trap
//   digest-taint        a function whose return value is minted from
//                       unordered_{map,set} iteration (and not laundered
//                       through a sort) feeding a digest/coverage sink in
//                       any caller, across files — the interprocedural form
//                       of unordered-iteration
//
// Scenario-corpus rules (scnlint.cc; run over .scn files via --scn):
//   scn-parse           a corpus file the scenario parser rejects
//   scn-unknown-system  `system:` not in the executor registry
//   scn-unknown-preset  `preset:` not in the system's preset table
//   scn-unknown-message an `inject`/ambient fault type name that matches no
//                       Message::TypeName() literal in the indexed sources —
//                       a fault rule that can never fire
//   scn-missing-expect  a scenario without both `expect flawed` and
//                       `expect correct` blocks — an unasserted variant
//
// Suppression syntax (same line as the finding or the line above):
//   // detlint: allow(<rule>): <reason text, mandatory>

#ifndef TOOLS_DETLINT_DETLINT_H_
#define TOOLS_DETLINT_DETLINT_H_

#include <map>
#include <string>
#include <vector>

namespace detlint {

// --- tokens ---

enum class TokKind {
  kIdentifier,
  kNumber,
  kString,  // string or char literal; text holds the (unquoted) contents
  kPunct,   // one punctuation character per token
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;    // 1-based
  int column = 0;  // 1-based
};

// Tokenizes C++ source. Comments are not emitted as tokens; `detlint:
// allow(...)` markers inside them are returned through SourceFile.
std::vector<Token> Tokenize(const std::string& contents);

// --- source files ---

struct Suppression {
  std::string rule;
  std::string reason;
  int line = 0;  // line of the comment
};

struct SourceFile {
  std::string path;  // root-relative, forward slashes
  std::string contents;
  std::vector<std::string> lines;
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  // Lines with an allow() marker missing its mandatory reason.
  std::vector<int> bad_suppression_lines;
};

// Builds a SourceFile from in-memory contents (path is used for reporting
// and for path-scoped rules).
SourceFile MakeSourceFile(const std::string& path, const std::string& contents);

// --- findings ---

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  int column = 0;
  std::string message;
  std::string snippet;  // the offending source line, trimmed
  // Stable, line-number-independent key used by baseline matching
  // (typically the banned identifier, function, or message name).
  std::string subject;
  bool baselined = false;
};

struct AnalysisResult {
  std::vector<Finding> findings;  // sorted by (file, line, rule); includes baselined
  int suppressed = 0;             // findings silenced by inline allow()s
  int files_scanned = 0;
  // New (non-baselined) findings — what gates the exit code.
  int NewCount() const;
};

// A scenario-corpus file (.scn). Checked by the scnlint rule family
// against the scenario parser and the structural index of `sources`.
struct ScnSource {
  std::string path;  // root-relative, forward slashes
  std::string contents;
};

// Runs every rule over the given sources. Baseline entries (one
// "rule<TAB>file<TAB>subject" per line) mark matching findings baselined
// instead of new.
AnalysisResult Analyze(const std::vector<SourceFile>& sources,
                       const std::multimap<std::string, int>& baseline);
// As above, plus the scenario-corpus rules over `scenarios`. Scenario
// findings flow through the same baseline/report/exit-code machinery;
// scenario files count toward files_scanned.
AnalysisResult Analyze(const std::vector<SourceFile>& sources,
                       const std::vector<ScnSource>& scenarios,
                       const std::multimap<std::string, int>& baseline);

// --- baseline files ---

// Parses "rule\tfile\tsubject" lines into a multiset (key -> count).
// Lines starting with '#' and blank lines are ignored.
std::multimap<std::string, int> ParseBaseline(const std::string& contents);
std::string BaselineKey(const Finding& finding);
// Renders the (non-suppressed) findings as a baseline file body.
std::string RenderBaseline(const std::vector<Finding>& findings);

// --- output ---

// Stable JSON report (schema "detlint-findings-v1").
std::string RenderJson(const AnalysisResult& result);
// Human-readable report, one line per finding plus a summary.
std::string RenderText(const AnalysisResult& result);

// --- filesystem driver (used by main; tests feed sources directly) ---

// Recursively collects .h/.hh/.hpp/.cc/.cpp/.cxx files under each path
// (or the file itself), sorted, with paths reported relative to `root`.
std::vector<std::string> CollectFiles(const std::string& root,
                                      const std::vector<std::string>& paths);
// Loads and tokenizes one file from disk. Returns false on read failure.
bool LoadSourceFile(const std::string& root, const std::string& rel_path,
                    SourceFile* out);
// Recursively collects .scn files under each path (or the file itself),
// sorted, with paths reported relative to `root`.
std::vector<std::string> CollectScnFiles(const std::string& root,
                                         const std::vector<std::string>& paths);
// Loads one scenario file from disk. Returns false on read failure.
bool LoadScnSource(const std::string& root, const std::string& rel_path,
                   ScnSource* out);

}  // namespace detlint

#endif  // TOOLS_DETLINT_DETLINT_H_
