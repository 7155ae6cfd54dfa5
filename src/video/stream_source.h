#ifndef SKYSCRAPER_VIDEO_STREAM_SOURCE_H_
#define SKYSCRAPER_VIDEO_STREAM_SOURCE_H_

#include <cstdint>

#include "util/sim_time.h"
#include "video/codec.h"
#include "video/content_process.h"

namespace sky::video {

/// Metadata for one segment of arriving video: the unit at which the knob
/// switcher makes decisions (a few seconds of stream).
struct SegmentInfo {
  int64_t index = 0;
  SimTime start = 0.0;
  double duration_s = 0.0;
  ContentState content;
  /// Encoded size of the segment (what the buffer accounts for).
  uint64_t bytes = 0;
};

/// Time at which segment `index` of a `segment_seconds` segmentation samples
/// its content: the segment midpoint. Every per-segment content read goes
/// through this one formula, so the state a segment is measured on and the
/// state it is scored on are the same bits.
inline SimTime SegmentMidpoint(int64_t index, double segment_seconds) {
  return static_cast<double>(index) * segment_seconds + 0.5 * segment_seconds;
}

/// Segments a live stream: pairs the content process with the byte-rate
/// model so the ingestion engine can iterate arriving segments.
class StreamSource {
 public:
  StreamSource(const ContentProcess* content, double segment_seconds)
      : content_(content), segment_seconds_(segment_seconds) {}

  /// The i-th arriving segment; content is sampled at the segment midpoint.
  SegmentInfo Segment(int64_t index) const;

  double segment_seconds() const { return segment_seconds_; }
  const ContentProcess& content() const { return *content_; }
  int64_t NumSegments(SimTime total_duration) const {
    return static_cast<int64_t>(total_duration / segment_seconds_);
  }

 private:
  const ContentProcess* content_;
  double segment_seconds_;
};

}  // namespace sky::video

#endif  // SKYSCRAPER_VIDEO_STREAM_SOURCE_H_
