//===- perfbench/driver/Trace.cpp - In-memory spans and counters ----------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "diag/Statistics.h"

#include <cstdio>

using namespace perfbench;

Counters perfbench::snapshotCounters() {
  Counters C;
  for (const lslp::Statistic *S : lslp::StatisticsRegistry::instance().all())
    C[std::string(S->getComponent()) + "." + S->getName()] = S->value();
  return C;
}

Counters perfbench::counterDelta(const Counters &Before,
                                 const Counters &After) {
  Counters D;
  for (const auto &[Name, Value] : After) {
    const uint64_t Old = counterValue(Before, Name);
    if (Value != Old)
      D[Name] = Value - Old;
  }
  return D;
}

uint64_t perfbench::counterValue(const Counters &C, const std::string &Name) {
  auto It = C.find(Name);
  return It == C.end() ? 0 : It->second;
}

Tracer::Tracer() : Epoch(Clock::now()) {}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
      .count();
}

Tracer::Span::Span(Tracer &T, const char *Name) : T(T), Index(T.Events.size()) {
  Event E;
  E.Name = Name;
  E.Parent = T.Open.empty() ? -1 : static_cast<long>(T.Open.back());
  E.Op = T.CurrentOp;
  E.StartUs = T.nowUs();
  T.Events.push_back(std::move(E));
  T.Open.push_back(Index);
}

Tracer::Span::~Span() {
  Event &E = T.Events[Index];
  E.DurUs = T.nowUs() - E.StartUs;
  if (E.Parent >= 0)
    T.Events[E.Parent].ChildUs += E.DurUs;
  T.Open.pop_back();
}

void Tracer::recordCounters(const char *Name, const Counters &Values) {
  Samples.push_back({Name, nowUs(), CurrentOp, Values});
}

std::map<std::string, double> Tracer::selfMsByName() const {
  std::map<std::string, double> Out;
  for (const Event &E : Events)
    Out[E.Name] += (E.DurUs - E.ChildUs) / 1000.0;
  return Out;
}

double Tracer::totalMs(const std::string &Name) const {
  double Us = 0;
  for (const Event &E : Events)
    if (E.Name == Name)
      Us += E.DurUs;
  return Us / 1000.0;
}

double Tracer::childShare(const std::string &Name) const {
  double Dur = 0, Child = 0;
  for (const Event &E : Events)
    if (E.Name == Name) {
      Dur += E.DurUs;
      Child += E.ChildUs;
    }
  return Dur > 0 ? Child / Dur : 0;
}

bool Tracer::writeChromeJSON(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", F);
  bool First = true;
  auto Sep = [&] {
    std::fputs(First ? "" : ",\n", F);
    First = false;
  };
  for (size_t I = 0; I != Events.size(); ++I) {
    const Event &E = Events[I];
    Sep();
    std::fprintf(F,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %ld, \"op\": %llu}}",
                 E.Name.c_str(), E.StartUs, E.DurUs, I, E.Parent,
                 static_cast<unsigned long long>(E.Op));
  }
  for (const Sample &S : Samples) {
    Sep();
    std::fprintf(F,
                 "{\"name\": \"%s\", \"ph\": \"C\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"id\": \"op%llu\", \"args\": {",
                 S.Name.c_str(), S.TsUs, static_cast<unsigned long long>(S.Op));
    bool FirstArg = true;
    for (const auto &[Name, Value] : S.Values) {
      std::fprintf(F, "%s\"%s\": %llu", FirstArg ? "" : ", ", Name.c_str(),
                   static_cast<unsigned long long>(Value));
      FirstArg = false;
    }
    std::fputs("}}", F);
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}
