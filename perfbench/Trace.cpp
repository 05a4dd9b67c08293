//===- perfbench/Trace.cpp - In-memory span recorder ----------------------===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>
#include <fstream>

using namespace perfbench;

size_t Tracer::begin(const char *Name) {
  Span S;
  S.Name = Name;
  S.StartNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - Origin)
                  .count();
  S.Parent = Open.empty() ? -1 : static_cast<int64_t>(Open.back());
  S.Request = Request;
  Spans.push_back(std::move(S));
  Open.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void Tracer::end(size_t Id) {
  Spans[Id].EndNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - Origin)
                        .count();
  // Spans are scoped, so the one closing is always the innermost.
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

std::map<std::string, int64_t> Tracer::selfTimes() const {
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].EndNs - Spans[I].StartNs;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.EndNs - S.StartNs;
  std::map<std::string, int64_t> ByName;
  for (size_t I = 0; I < Spans.size(); ++I)
    ByName[Spans[I].Name] += Self[I];
  return ByName;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::ofstream OS(Path, std::ios::trunc);
  if (!OS)
    return false;
  OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char Buf[512];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::string Cat = S.Name;
    Cat = Cat.substr(0, Cat.find('.'));
    // Span names and tags are fixed identifiers and L1 labels: no
    // character in them needs JSON escaping.
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"span\": %zu, \"parent\": %lld, \"request\": "
                  "%llu, \"tag\": \"%s\"}}",
                  I ? "," : "", S.Name, Cat.c_str(), S.StartNs / 1e3,
                  (S.EndNs - S.StartNs) / 1e3, I,
                  static_cast<long long>(S.Parent),
                  static_cast<unsigned long long>(S.Request), S.Tag.c_str());
    OS << Buf;
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}
