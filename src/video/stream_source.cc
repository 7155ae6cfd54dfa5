#include "video/stream_source.h"

namespace sky::video {

SegmentInfo StreamSource::Segment(int64_t index) const {
  SegmentInfo seg;
  seg.index = index;
  seg.start = static_cast<double>(index) * segment_seconds_;
  seg.duration_s = segment_seconds_;
  seg.content = content_->At(SegmentMidpoint(index, segment_seconds_));
  double bytes_per_s = EstimateStreamBytesPerSecond(seg.content.density) *
                       std::max(1.0, seg.content.stream_count);
  seg.bytes = static_cast<uint64_t>(bytes_per_s * segment_seconds_);
  return seg;
}

}  // namespace sky::video
