#include "trace/annotate.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "h2/constants.h"
#include "trace/metrics.h"
#include "trace/wire_record.h"

namespace h2r::trace {
namespace {

using h2::FrameType;

constexpr std::uint64_t kMaxWindow = 0x7FFFFFFFull;
// Settings identifier for SETTINGS_INITIAL_WINDOW_SIZE (RFC 7540 §6.5.2).
constexpr std::uint32_t kInitialWindowSizeId = 4;
constexpr std::uint64_t kDefaultWindow = 65535;
// Windows below this are "tiny" — the paper's §V-D1 small-window probe uses
// single-digit values; anything under 1 KiB cannot carry a realistic
// response in one flight.
constexpr std::uint64_t kTinyWindowLimit = 1024;

bool is_frame(const WireRecord& ev, Direction dir, FrameType type) {
  return kind_of(ev) == EventKind::kFrame && dir_of(ev) == dir &&
         type_of(ev) == static_cast<std::uint8_t>(type);
}

// Mitigation reactions (server::MitigationPolicy) are coded
// ENHANCE_YOUR_CALM so the quirk passes can tell them apart from genuine
// protocol reactions and leave the Table III derivation untouched.
bool is_mitigation_frame(const WireRecord& ev) {
  return kind_of(ev) == EventKind::kFrame &&
         dir_of(ev) == Direction::kServerToClient &&
         (type_of(ev) == static_cast<std::uint8_t>(FrameType::kRstStream) ||
          type_of(ev) == static_cast<std::uint8_t>(FrameType::kGoaway)) &&
         a_of(ev) == static_cast<std::uint32_t>(h2::ErrorCode::kEnhanceYourCalm);
}

/// The annotator's one input: a ring's raw WireRecords. Tags become
/// occurrence counts keyed by the interned tag constants (pointer identity
/// — every tag() call in this file passes a tags::k* constant) and, when
/// `record_tags` is non-null, (record index, tag) pairs in pass order.
/// Each record can be folded into a MetricsRecorder as the segmentation
/// sweep passes over it.
struct RingView {
  const RingRecorder& ring;
  TagCounts& counts;
  MetricsRecorder* fold;
  RecordTags* record_tags;
  std::uint64_t first_seq;

  [[nodiscard]] std::size_t size() const noexcept { return ring.size(); }
  const WireRecord& operator[](std::size_t i) const noexcept {
    return ring.at(i);
  }
  // GOAWAY notes are "<ERROR_NAME>" or "<ERROR_NAME>:<debug data>".
  [[nodiscard]] bool goaway_has_debug(std::size_t i) const {
    return ring.note_at(i).find(':') != std::string_view::npos;
  }
  void tag(std::size_t i, const char* name) {
    if (record_tags != nullptr) record_tags->emplace_back(i, name);
    for (auto& [existing, n] : counts) {
      if (existing == name) {
        ++n;
        return;
      }
    }
    counts.emplace_back(name, 1);
  }
  void tee(std::size_t i) {
    if (fold != nullptr) fold->fold_record(first_seq + i, ring.at(i));
  }
};

/// How the server reacted to a client-side protocol trigger.
enum class Reaction { kNone, kRst, kGoaway, kGoawayDebug };

/// Flat (stream -> value) shadow state: returns the entry for @p key,
/// inserting it with @p init on first sight. Segments hold a handful of
/// streams, so linear probes beat node-based maps — and with the scratch
/// buffers reused across segments the passes allocate almost never.
template <typename T>
T& shadow_get(std::vector<std::pair<std::uint32_t, T>>& v, std::uint32_t key,
              T init) {
  for (auto& [k, value] : v) {
    if (k == key) return value;
  }
  return v.emplace_back(key, init).second;
}

template <typename T>
T* shadow_find(std::vector<std::pair<std::uint32_t, T>>& v,
               std::uint32_t key) {
  for (auto& [k, value] : v) {
    if (k == key) return &value;
  }
  return nullptr;
}

bool id_contains(const std::vector<std::uint32_t>& v, std::uint32_t key) {
  return std::find(v.begin(), v.end(), key) != v.end();
}

/// Returns true when @p key was not yet present (set-insert semantics).
bool id_insert(std::vector<std::uint32_t>& v, std::uint32_t key) {
  if (id_contains(v, key)) return false;
  v.push_back(key);
  return true;
}

/// Per-stream state for the zero/tiny-window stall pass.
struct StallState {
  std::size_t request_idx = 0;
  bool response_headers = false;
  bool reset = false;
  bool payload_seen = false;
  bool tagged = false;
};

/// Shadow-state buffers shared by every segment of one annotate call;
/// cleared (capacity kept) between segments.
struct ShadowScratch {
  std::vector<std::pair<std::uint32_t, std::int64_t>> window;
  std::vector<std::pair<std::uint32_t, StallState>> stalls;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> allowed;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> sent;
  std::vector<std::uint32_t> tagged_streams;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> parent;
  std::vector<std::uint32_t> requested;
  std::vector<std::uint32_t> closed;

  void reset() {
    window.clear();
    stalls.clear();
    allowed.clear();
    sent.clear();
    tagged_streams.clear();
    parent.clear();
    requested.clear();
    closed.clear();
  }
};

/// What one sweep over a segment witnessed: the client's
/// SETTINGS_INITIAL_WINDOW_SIZE (from the first server-side "settings
/// applied" event — before any request is served the server has processed
/// the client preface, so this is the value every response stream starts
/// with), one trigger flag per quirk pass, and the response-header-block
/// counts the HPACK rule needs. Collected incrementally by the caller's
/// segmentation sweep so annotation needs no separate pre-scan pass.
struct SegmentWitness {
  std::uint64_t client_iws = kDefaultWindow;
  bool iws_seen = false;
  bool has_c2s_window_update = false;
  bool has_c2s_wu_zero = false;
  bool has_priority_signal = false;
  bool has_s2c_data = false;
  bool has_s2c_goaway = false;  ///< non-mitigation server GOAWAY
  bool has_mitigation = false;
  std::size_t response_blocks = 0;
  std::size_t last_response_headers = 0;
  std::uint64_t s2c_hpack_inserts = 0;
  /// Conservative aggregates for the pass gates below: the summed c2s
  /// WINDOW_UPDATE increments bound any single shadow window from above
  /// (debits only shrink it), and the summed s2c DATA payload bounds any
  /// single stream's spend. A pass whose violation is arithmetically
  /// impossible under these bounds is skipped without walking the segment.
  std::uint64_t c2s_wu_sum = 0;
  std::uint64_t s2c_data_payload = 0;

  void reset() { *this = SegmentWitness{}; }

  void observe(const WireRecord& ev, std::size_t index) {
    if (kind_of(ev) == EventKind::kSettingsApplied) {
      if (!iws_seen && dir_of(ev) == Direction::kClientToServer &&
          a_of(ev) == kInitialWindowSizeId) {
        client_iws = b_of(ev);
        iws_seen = true;
      }
      return;
    }
    if (kind_of(ev) == EventKind::kMitigation) {
      has_mitigation = true;
      return;
    }
    if (kind_of(ev) == EventKind::kHpackInsert &&
        dir_of(ev) == Direction::kServerToClient) {
      s2c_hpack_inserts += a_of(ev);
      return;
    }
    if (kind_of(ev) != EventKind::kFrame) return;
    if (dir_of(ev) == Direction::kClientToServer) {
      if (type_of(ev) == static_cast<std::uint8_t>(FrameType::kWindowUpdate)) {
        has_c2s_window_update = true;
        if (a_of(ev) == 0) has_c2s_wu_zero = true;
        c2s_wu_sum += a_of(ev);
      } else if (type_of(ev) ==
                 static_cast<std::uint8_t>(FrameType::kPriority)) {
        has_priority_signal = true;
      } else if (type_of(ev) ==
                     static_cast<std::uint8_t>(FrameType::kHeaders) &&
                 (b_of(ev) & kPriorityPresentBit) != 0) {
        has_priority_signal = true;
      }
      return;
    }
    if (type_of(ev) == static_cast<std::uint8_t>(FrameType::kData)) {
      has_s2c_data = true;
      s2c_data_payload += a_of(ev);
    } else if (type_of(ev) == static_cast<std::uint8_t>(FrameType::kHeaders)) {
      ++response_blocks;
      last_response_headers = index;
    } else if (is_mitigation_frame(ev)) {
      has_mitigation = true;
    } else if (type_of(ev) == static_cast<std::uint8_t>(FrameType::kGoaway)) {
      has_s2c_goaway = true;
    }
  }
};

class SegmentAnnotator {
 public:
  SegmentAnnotator(RingView& view, std::size_t begin, std::size_t end,
                   ShadowScratch& scratch, const SegmentWitness& witness)
      : view_(view), begin_(begin), end_(end), sc_(scratch), w_(witness),
        client_iws_(witness.client_iws) {
    sc_.reset();
  }

  void run() {
    // The caller's sweep already decided which quirk passes can possibly
    // tag anything; most probe connections trigger none. Each gate is
    // conservative — it skips a pass only when the witness aggregates make
    // every one of that pass's tags arithmetically impossible — so skipping
    // cannot change the annotation.
    //
    // window_updates tags zero increments and window overflow. Overflow
    // needs some shadow window above 2^31-1, and every window is bounded by
    // its initial value (client IWS for streams, the protocol default for
    // the connection) plus the segment's total c2s increments: DATA only
    // debits. Routine replenishment on a clean connection never crosses
    // either bound, so the common case skips the walk entirely.
    const bool wu_can_tag =
        w_.has_c2s_wu_zero ||
        std::max(client_iws_, kDefaultWindow) + w_.c2s_wu_sum > kMaxWindow;
    if (w_.has_c2s_window_update && wu_can_tag) annotate_window_updates();
    if (w_.has_priority_signal) annotate_self_dependency();
    annotate_headers_and_tiny_window();  // self-gates on the client window
    // data_budget tags spend above budget. Any stream's spend is bounded by
    // the segment's total s2c DATA payload, and both budgets (stream:
    // client IWS, connection: protocol default) only ever grow from their
    // initial values — total payload under both initials means no stream
    // and not the connection can be over budget.
    if (w_.has_s2c_data &&
        w_.s2c_data_payload > std::min(client_iws_, kDefaultWindow)) {
      annotate_data_budget();
    }
    if (w_.has_priority_signal && w_.s2c_data_payload > 0) {
      annotate_priority_order();
    }
    if (w_.response_blocks >= 2 && w_.s2c_hpack_inserts == 0) {
      // RFC 7541: several response header blocks, no dynamic-table growth —
      // static-table-only compression (Table III "support*").
      tag(w_.last_response_headers, tags::kHpackNoDynamicIndexing);
    }
    if (w_.has_mitigation) annotate_mitigation();
  }

 private:
  void tag(std::size_t i, const char* name) { view_.tag(i, name); }

  /// First server reaction recorded after @p trigger: an RST_STREAM on
  /// @p stream (when stream-scoped) or any GOAWAY. ENHANCE_YOUR_CALM frames
  /// are mitigation, not a reaction to the probe trigger, and are skipped.
  Reaction reaction_after(std::size_t trigger, std::uint32_t stream) const {
    for (std::size_t i = trigger + 1; i < end_; ++i) {
      const auto& ev = view_[i];
      if (is_mitigation_frame(ev)) continue;
      if (stream != 0 &&
          is_frame(ev, Direction::kServerToClient, FrameType::kRstStream) &&
          stream_of(ev) == stream) {
        return Reaction::kRst;
      }
      if (is_frame(ev, Direction::kServerToClient, FrameType::kGoaway)) {
        return view_.goaway_has_debug(i) ? Reaction::kGoawayDebug
                                         : Reaction::kGoaway;
      }
    }
    return Reaction::kNone;
  }

  // §6.9: zero-increment and overflowing WINDOW_UPDATEs. RFC-prescribed
  // reactions (stream error -> RST_STREAM, connection error -> GOAWAY) stay
  // untagged; everything else gets the matching reaction-suffix tag. The
  // shadow windows replay the real arithmetic — server DATA debits them —
  // so the client's routine replenishment never reads as an overflow.
  void annotate_window_updates() {
    std::vector<std::pair<std::uint32_t, std::int64_t>>& stream_window =
        sc_.window;
    std::int64_t conn_window = static_cast<std::int64_t>(kDefaultWindow);
    bool conn_overflowed = false;
    const auto initial = static_cast<std::int64_t>(client_iws_);
    for (std::size_t i = begin_; i < end_; ++i) {
      const auto& ev = view_[i];
      if (is_frame(ev, Direction::kServerToClient, FrameType::kData)) {
        const auto payload = static_cast<std::int64_t>(a_of(ev));
        conn_window -= payload;
        shadow_get(stream_window, stream_of(ev), initial) -= payload;
        continue;
      }
      if (!is_frame(ev, Direction::kClientToServer, FrameType::kWindowUpdate)) {
        continue;
      }
      const std::uint32_t stream = stream_of(ev);
      const auto increment = static_cast<std::int64_t>(a_of(ev));
      if (increment == 0) {
        const Reaction r = reaction_after(i, stream);
        if (stream != 0) {
          if (r == Reaction::kNone) tag(i, tags::kZeroWuStreamIgnored);
          if (r == Reaction::kGoaway) tag(i, tags::kZeroWuStreamGoaway);
          if (r == Reaction::kGoawayDebug) {
            tag(i, tags::kZeroWuStreamGoawayDebug);
          }
        } else {
          if (r == Reaction::kNone) tag(i, tags::kZeroWuConnIgnored);
          if (r == Reaction::kGoawayDebug) tag(i, tags::kZeroWuConnGoawayDebug);
        }
        continue;
      }
      if (stream != 0) {
        std::int64_t& window = shadow_get(stream_window, stream, initial);
        const bool was_over = window > static_cast<std::int64_t>(kMaxWindow);
        window += increment;
        if (window > static_cast<std::int64_t>(kMaxWindow) && !was_over) {
          const Reaction r = reaction_after(i, stream);
          if (r == Reaction::kNone) tag(i, tags::kLargeWuStreamIgnored);
          if (r == Reaction::kGoaway) tag(i, tags::kLargeWuStreamGoaway);
          if (r == Reaction::kGoawayDebug) {
            tag(i, tags::kLargeWuStreamGoawayDebug);
          }
        }
      } else {
        conn_window += increment;
        if (conn_window > static_cast<std::int64_t>(kMaxWindow) &&
            !conn_overflowed) {
          conn_overflowed = true;
          const Reaction r = reaction_after(i, 0);
          if (r == Reaction::kNone) tag(i, tags::kLargeWuConnIgnored);
          if (r == Reaction::kGoawayDebug) tag(i, tags::kLargeWuConnGoawayDebug);
        }
      }
    }
  }

  // §5.3.1: a stream depending on itself is a PROTOCOL_ERROR stream error.
  void annotate_self_dependency() {
    for (std::size_t i = begin_; i < end_; ++i) {
      const auto& ev = view_[i];
      const bool priority_self =
          is_frame(ev, Direction::kClientToServer, FrameType::kPriority) &&
          a_of(ev) == stream_of(ev) && stream_of(ev) != 0;
      const bool headers_self =
          is_frame(ev, Direction::kClientToServer, FrameType::kHeaders) &&
          (b_of(ev) & kPriorityPresentBit) != 0 &&
          a_of(ev) == stream_of(ev) && stream_of(ev) != 0;
      if (!priority_self && !headers_self) continue;
      const Reaction r = reaction_after(i, stream_of(ev));
      if (r == Reaction::kNone) tag(i, tags::kSelfDependencyIgnored);
      if (r == Reaction::kGoaway) tag(i, tags::kSelfDependencyGoaway);
      if (r == Reaction::kGoawayDebug) tag(i, tags::kSelfDependencyGoawayDebug);
    }
  }

  // Under INITIAL_WINDOW_SIZE = 0 a compliant server still sends HEADERS
  // (flow control covers DATA only). A request answered with nothing at all
  // — no HEADERS, no RST_STREAM, no GOAWAY — exposes flow control applied
  // to the header frames. Under a tiny-but-nonzero window, a zero-length
  // END_STREAM DATA (before any payload) or a fully silent stream is the
  // paper's small-frame deviation pair.
  void annotate_headers_and_tiny_window() {
    const bool zero_window = client_iws_ == 0;
    const bool tiny_window = client_iws_ > 0 && client_iws_ < kTinyWindowLimit;
    if (!zero_window && !tiny_window) return;
    // A non-mitigation GOAWAY (witnessed by the segmentation sweep) is a
    // connection-level reaction, not a silent stall.
    if (w_.has_s2c_goaway) return;

    std::vector<std::pair<std::uint32_t, StallState>>& streams = sc_.stalls;
    for (std::size_t i = begin_; i < end_; ++i) {
      const auto& ev = view_[i];
      if (is_frame(ev, Direction::kClientToServer, FrameType::kHeaders)) {
        if (shadow_find(streams, stream_of(ev)) == nullptr) {
          streams.emplace_back(stream_of(ev), StallState{.request_idx = i});
        }
        continue;
      }
      if (kind_of(ev) != EventKind::kFrame ||
          dir_of(ev) != Direction::kServerToClient) {
        continue;
      }
      StallState* found = shadow_find(streams, stream_of(ev));
      if (found == nullptr) continue;
      StallState& st = *found;
      if (type_of(ev) == static_cast<std::uint8_t>(FrameType::kHeaders)) {
        st.response_headers = true;
      }
      if (type_of(ev) == static_cast<std::uint8_t>(FrameType::kRstStream) &&
          !is_mitigation_frame(ev)) {
        st.reset = true;
      }
      if (tiny_window &&
          type_of(ev) == static_cast<std::uint8_t>(FrameType::kData)) {
        if (a_of(ev) == 0 && (flags_of(ev) & h2::flags::kEndStream) != 0 &&
            !st.payload_seen && !st.tagged) {
          tag(i, tags::kZeroLengthDataUnderTinyWindow);
          st.tagged = true;
        }
        if (a_of(ev) > 0) st.payload_seen = true;
      }
    }
    for (auto& [stream, st] : streams) {
      if (st.response_headers || st.reset || st.tagged) continue;
      if (zero_window) {
        tag(st.request_idx, tags::kFlowControlOnHeaders);
      } else {
        tag(st.request_idx, tags::kStalledUnderTinyWindow);
      }
    }
  }

  // §6.9: response DATA must fit in the budget the client advertised. The
  // trace records client WINDOW_UPDATEs when the client emits them, which
  // is never later than when the server credits them, so cumulative DATA
  // exceeding the trace-order budget is a true violation. Mid-connection
  // INITIAL_WINDOW_SIZE changes are not modelled (the probes never resize).
  void annotate_data_budget() {
    std::vector<std::pair<std::uint32_t, std::uint64_t>>& stream_allowed =
        sc_.allowed;
    std::vector<std::pair<std::uint32_t, std::uint64_t>>& stream_sent =
        sc_.sent;
    std::uint64_t conn_allowed = kDefaultWindow;
    std::uint64_t conn_sent = 0;
    bool conn_tagged = false;
    std::vector<std::uint32_t>& stream_tagged = sc_.tagged_streams;
    for (std::size_t i = begin_; i < end_; ++i) {
      const auto& ev = view_[i];
      if (is_frame(ev, Direction::kClientToServer, FrameType::kWindowUpdate)) {
        if (stream_of(ev) == 0) {
          conn_allowed += a_of(ev);
        } else {
          shadow_get(stream_allowed, stream_of(ev),
                     static_cast<std::uint64_t>(client_iws_)) += a_of(ev);
        }
        continue;
      }
      if (!is_frame(ev, Direction::kServerToClient, FrameType::kData) ||
          stream_of(ev) == 0) {
        continue;
      }
      const std::uint64_t payload = a_of(ev);
      conn_sent += payload;
      const std::uint64_t allowed = shadow_get(
          stream_allowed, stream_of(ev),
          static_cast<std::uint64_t>(client_iws_));
      std::uint64_t& sent =
          shadow_get(stream_sent, stream_of(ev), std::uint64_t{0});
      sent += payload;
      if (sent > allowed && id_insert(stream_tagged, stream_of(ev))) {
        tag(i, tags::kDataExceedsStreamWindow);
      }
      if (conn_sent > conn_allowed && !conn_tagged) {
        conn_tagged = true;
        tag(i, tags::kDataExceedsConnWindow);
      }
    }
  }

  // §5.3 / paper Algorithm 1: once the client declares a dependency tree,
  // response DATA for a stream whose declared ancestor is still requested,
  // unserved and unreset means the scheduler ignored the tree. The shadow
  // tree mirrors client-sent PRIORITY / HEADERS-with-priority signals,
  // including exclusive reparenting.
  void annotate_priority_order() {
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& parent = sc_.parent;
    std::vector<std::uint32_t>& requested = sc_.requested;
    std::vector<std::uint32_t>& closed = sc_.closed;
    bool tagged = false;

    auto apply_signal = [&](std::uint32_t stream, std::uint32_t dependency,
                            bool exclusive) {
      if (stream == 0 || dependency == stream) return;  // self-dep handled above
      if (exclusive) {
        for (auto& [child, par] : parent) {
          if (par == dependency && child != stream) par = stream;
        }
      }
      shadow_get(parent, stream, std::uint32_t{0}) = dependency;
    };

    for (std::size_t i = begin_; i < end_ && !tagged; ++i) {
      const auto& ev = view_[i];
      if (kind_of(ev) != EventKind::kFrame) continue;
      if (dir_of(ev) == Direction::kClientToServer) {
        if (type_of(ev) == static_cast<std::uint8_t>(FrameType::kHeaders)) {
          id_insert(requested, stream_of(ev));
          if ((b_of(ev) & kPriorityPresentBit) != 0) {
            apply_signal(stream_of(ev), a_of(ev),
                         (b_of(ev) & kExclusiveBit) != 0);
          }
        } else if (type_of(ev) ==
                   static_cast<std::uint8_t>(FrameType::kPriority)) {
          apply_signal(stream_of(ev), a_of(ev),
                       (b_of(ev) & kExclusiveBit) != 0);
        } else if (type_of(ev) ==
                   static_cast<std::uint8_t>(FrameType::kRstStream)) {
          id_insert(closed, stream_of(ev));  // client cancelled (drain stream)
        }
        continue;
      }
      // Server side: track completion, then check ordering on payload DATA.
      const auto type = static_cast<FrameType>(type_of(ev));
      if (type == FrameType::kRstStream) {
        id_insert(closed, stream_of(ev));
        continue;
      }
      if (type == FrameType::kGoaway) {
        if (is_mitigation_frame(ev)) continue;
        break;
      }
      const bool ends_stream = (type == FrameType::kData ||
                                type == FrameType::kHeaders) &&
                               (flags_of(ev) & h2::flags::kEndStream) != 0;
      if (type == FrameType::kData && a_of(ev) > 0 &&
          id_contains(requested, stream_of(ev)) &&
          !id_contains(closed, stream_of(ev))) {
        // Ancestor walk, cycle-safe by hop bound: an acyclic chain visits
        // each parent edge at most once, so walking more than parent.size()
        // hops means the chain looped back through nodes already checked.
        std::uint32_t node = stream_of(ev);
        for (std::size_t hops = 0; hops <= parent.size(); ++hops) {
          const std::uint32_t* par = shadow_find(parent, node);
          if (par == nullptr || *par == 0) break;
          node = *par;
          if (id_contains(requested, node) && !id_contains(closed, node)) {
            tag(i, tags::kPriorityInversion);
            tagged = true;
            break;
          }
        }
      }
      if (ends_stream) id_insert(closed, stream_of(ev));
    }
  }

  // Mitigation annotation class: ENHANCE_YOUR_CALM frames and kMitigation
  // escalation events get their own tags (never the quirk tags above).
  void annotate_mitigation() {
    for (std::size_t i = begin_; i < end_; ++i) {
      const auto& ev = view_[i];
      if (kind_of(ev) == EventKind::kMitigation) {
        switch (a_of(ev)) {
          case 0:
            tag(i, tags::kMitigationRelease);
            break;
          case 1:
            tag(i, tags::kMitigationThrottle);
            break;
          case 2:
            tag(i, tags::kMitigationRst);
            break;
          default:
            tag(i, tags::kMitigationGoaway);
            break;
        }
        continue;
      }
      if (!is_mitigation_frame(ev)) continue;
      tag(i, type_of(ev) == static_cast<std::uint8_t>(FrameType::kGoaway)
                 ? tags::kMitigationGoaway
                 : tags::kMitigationRst);
    }
  }

  RingView& view_;
  std::size_t begin_;
  std::size_t end_;
  ShadowScratch& sc_;
  const SegmentWitness& w_;
  std::uint64_t client_iws_;
};

/// The driver: one sweep segments the trace on kConnectionStart markers and
/// collects each segment's witness (and tees every record into the view's
/// fold, so the metrics ride the same walk), then the gated passes run per
/// segment.
void annotate_with(RingView& view) {
  // Shared across segments — and, being thread-local, across calls: a scan
  // worker annotating hundreds of sites reuses the same shadow buffers
  // instead of growing fresh ones per site. Every segment starts from
  // reset() state (the SegmentAnnotator ctor clears), so reuse is
  // invisible to the annotation.
  thread_local ShadowScratch scratch;
  SegmentWitness witness;  // collected by the sweep below, per segment
  std::size_t segment_begin = 0;
  bool in_segment = false;
  const std::size_t n = view.size();
  auto close_segment = [&](std::size_t end) {
    if (in_segment && end > segment_begin) {
      SegmentAnnotator(view, segment_begin, end, scratch, witness).run();
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    view.tee(i);
    const auto& ev = view[i];
    if (kind_of(ev) == EventKind::kConnectionStart) {
      close_segment(i);
      segment_begin = i;
      in_segment = true;
      witness.reset();
      continue;
    }
    witness.observe(ev, i);
  }
  // Traces may omit connection markers (hand-built rings); treat the whole
  // ring as one segment then. The witness already covers the whole ring in
  // that case (segment_begin never moved off zero).
  if (!in_segment && n != 0) {
    segment_begin = 0;
    in_segment = true;
  }
  close_segment(n);
}

}  // namespace

void annotate_ring(const RingRecorder& ring, TagCounts& counts,
                   MetricsRecorder* fold, RecordTags* record_tags) {
  RingView view{ring, counts, fold, record_tags, ring.first_seq()};
  annotate_with(view);
}

void append_annotated_jsonl(std::string& out, const RingRecorder& ring,
                            RecordTags& record_tags, std::string_view site) {
  // The passes tag in pass order, not record order; a stable sort by index
  // keeps each record's own tags in the order the passes attached them.
  std::stable_sort(
      record_tags.begin(), record_tags.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  out.reserve(out.size() + ring.size() * 96);
  TraceEvent row;  // one decoded row, reused for every record
  auto next = record_tags.cbegin();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    decode_record(ring.first_seq() + i, ring.at(i), ring.note_at(i), row);
    for (; next != record_tags.cend() && next->first == i; ++next) {
      row.tags.emplace_back(next->second);
    }
    append_jsonl(out, row, site);
  }
}

void fold_ring(const RingRecorder& ring, MetricsRegistry& registry,
               MetricsRecorder& folder, TagCounts& counts,
               RecordTags& record_tags) {
  counts.clear();
  record_tags.clear();
  folder.rebind(registry);
  annotate_ring(ring, counts, &folder, &record_tags);
  folder.finish();
  for (const auto& [name, n] : counts) registry.add_violation(name, n);
}

}  // namespace h2r::trace
