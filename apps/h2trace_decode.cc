// h2trace-decode — offline expansion of "H2WT" binary wiretap dumps.
//
// Reads a dump written by h2serve --trace-format=bin (or any
// RingRecorder::serialize() output) back into a ring and prints its
// H2Wiretap JSONL to stdout. With --annotate the ring goes through the same
// writer as the producing process (trace::append_annotated_jsonl), so the
// output is byte-identical to what it would have written with
// --trace-format=jsonl (the binary path never stores tags; the annotator
// derives them from the records). Without it, the decoded records are
// printed with empty tags.
//
//   h2serve --trace-out t.bin --trace-format=bin ... ; h2trace-decode --annotate t.bin
//
// Parsing is strict: bad magic or version, truncation, trailing garbage,
// out-of-range note refs, a repeated note string and a first_seq that is
// not the drop count all fail with a message on stderr and exit 1.
//
// Flags:
//   --annotate    run the violation annotator before printing (tags column)
//   --site NAME   prepend a site field to every line (multi-dump merges)
//   FILE          the dump; "-" reads stdin
#include <cstdio>
#include <cstring>
#include <string>

#include "trace/annotate.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--annotate] [--site NAME] FILE|-\n", argv0);
  return 2;
}

bool read_whole(const char* path, std::string& out) {
  std::FILE* f = std::strcmp(path, "-") == 0 ? stdin : std::fopen(path, "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  if (f != stdin) std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace h2r;

  bool annotate = false;
  const char* site = "";
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--annotate") {
      annotate = true;
    } else if (arg == "--site") {
      if (i + 1 >= argc) return usage(argv[0]);
      site = argv[++i];
    } else if (arg == "-" || arg[0] != '-') {
      if (path != nullptr) return usage(argv[0]);
      path = argv[i];
    } else {
      std::fprintf(stderr, "h2trace-decode: unknown flag \"%s\"\n", argv[i]);
      return usage(argv[0]);
    }
  }
  if (path == nullptr) return usage(argv[0]);

  std::string bytes;
  if (!read_whole(path, bytes)) {
    std::fprintf(stderr, "h2trace-decode: could not read %s\n", path);
    return 1;
  }

  trace::RingRecorder ring;
  std::string error;
  if (!trace::parse_trace_bin(bytes, ring, error)) {
    std::fprintf(stderr, "h2trace-decode: %s: %s\n", path, error.c_str());
    return 1;
  }
  if (ring.drops() != 0) {
    std::fprintf(stderr,
                 "h2trace-decode: note: %llu older record(s) were evicted "
                 "from the producing ring before this dump\n",
                 static_cast<unsigned long long>(ring.drops()));
  }

  std::string jsonl;
  if (annotate) {
    trace::TagCounts counts;
    trace::RecordTags record_tags;
    trace::annotate_ring(ring, counts, nullptr, &record_tags);
    trace::append_annotated_jsonl(jsonl, ring, record_tags, site);
  } else {
    jsonl = trace::to_jsonl(ring.decode(), site);
  }
  if (std::fwrite(jsonl.data(), 1, jsonl.size(), stdout) != jsonl.size()) {
    std::fprintf(stderr, "h2trace-decode: short write to stdout\n");
    return 1;
  }
  return 0;
}
