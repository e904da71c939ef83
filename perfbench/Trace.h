//===- perfbench/Trace.h - Benchmark-side span recorder --------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Spans the benchmark records around its own calls into each StructSlim
// layer: name, layer, start, end and parent, kept in memory and written
// out once as Chrome trace-event JSON (chrome://tracing, Perfetto).
// Spans inside the program are not recorded here; a span's self time is
// its duration minus what its child spans cover, so the self times of
// one pass add up to the pass's root span.
//
// Single-threaded by design: every span opens and closes on the thread
// that drives the benchmark. A disabled tracer costs one branch per
// span.
//
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_PERFBENCH_TRACE_H
#define STRUCTSLIM_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span. Times are seconds since the tracer was created.
struct Span {
  std::string Name;
  const char *Layer = "";
  double Start = 0;
  double End = 0;
  int Parent = -1; ///< Index of the enclosing span, -1 for a root.
  unsigned Pass = 0; ///< The pass the span belongs to (its trace "tid").
};

class Tracer {
public:
  Tracer() : Epoch(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool enabled() const { return On; }
  void setEnabled(bool Enable) { On = Enable; }
  void setPass(unsigned P) { Pass = P; }

  /// RAII span; records nothing when the tracer is disabled.
  class Scope {
  public:
    Scope(Tracer &T, const char *Layer, std::string Name) : T(T) {
      if (T.On)
        Index = T.open(Layer, std::move(Name));
    }
    ~Scope() {
      if (Index >= 0)
        T.close(Index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Index = -1;
  };

  const std::vector<Span> &spans() const { return Spans; }

  /// Self seconds per layer over the spans of pass \p P.
  std::map<std::string, double> selfSeconds(unsigned P) const {
    std::vector<double> ChildCover(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Pass == P && S.Parent >= 0)
        ChildCover[S.Parent] += S.End - S.Start;
    std::map<std::string, double> Out;
    for (size_t I = 0; I != Spans.size(); ++I)
      if (Spans[I].Pass == P)
        Out[Spans[I].Layer] += Spans[I].End - Spans[I].Start - ChildCover[I];
    return Out;
  }

  /// Summed duration of the spans of pass \p P named \p Name.
  double totalSeconds(unsigned P, const std::string &Name) const {
    double Sum = 0;
    for (const Span &S : Spans)
      if (S.Pass == P && S.Name == Name)
        Sum += S.End - S.Start;
    return Sum;
  }

  /// Writes every span as a Chrome trace-event "X" (complete) event;
  /// false when the file cannot be written.
  bool writeChromeTrace(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", F);
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                   S.Name.c_str(), S.Layer, S.Start * 1e6,
                   (S.End - S.Start) * 1e6, S.Pass, I, S.Parent,
                   I + 1 != Spans.size() ? "," : "");
    }
    std::fputs("]}\n", F);
    return std::fclose(F) == 0;
  }

private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Epoch)
        .count();
  }

  int open(const char *Layer, std::string Name) {
    Span S;
    S.Name = std::move(Name);
    S.Layer = Layer;
    S.Parent = Current;
    S.Pass = Pass;
    Spans.push_back(std::move(S));
    Current = static_cast<int>(Spans.size()) - 1;
    // Read the clock last so the bookkeeping above is not charged to
    // the span.
    Spans.back().Start = now();
    return Current;
  }

  void close(int Index) {
    Spans[Index].End = now();
    Current = Spans[Index].Parent;
  }

  std::chrono::steady_clock::time_point Epoch;
  std::vector<Span> Spans;
  int Current = -1;
  unsigned Pass = 0;
  bool On = false;
};

} // namespace perfbench

#endif // STRUCTSLIM_PERFBENCH_TRACE_H
