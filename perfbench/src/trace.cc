#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* StageName(Stage s) {
  switch (s) {
    case Stage::kPass: return "pass";
    case Stage::kIngest: return "core.ingest";
    case Stage::kTrigger: return "core.trigger";
    case Stage::kDrain: return "core.drain";
    case Stage::kRegister: return "query.register";
    case Stage::kPush: return "runtime.exec.push";
    case Stage::kPushWatermark: return "runtime.exec.watermark";
    case Stage::kFinish: return "runtime.exec.finish";
    case Stage::kBarrier: return "runtime.ckpt.barrier";
    case Stage::kFlush: return "runtime.ckpt.flush";
  }
  return "?";
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"thread\":%u,\"id\":%llu,\"parent\":%llu,"
                 "\"epoch\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 StageName(s.stage), s.thread,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.epoch),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
