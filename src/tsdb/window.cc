#include "src/tsdb/window.h"

#include "src/common/check.h"

namespace fbdetect {

WindowView ExtractWindowView(const TimeSeries& series, TimePoint as_of, const WindowSpec& spec) {
  FBD_CHECK(spec.historical > 0);
  FBD_CHECK(spec.analysis > 0);
  FBD_CHECK(spec.extended >= 0);
  WindowView view;
  view.as_of = as_of;
  view.extended_begin = as_of - spec.extended;
  view.analysis_begin = view.extended_begin - spec.analysis;
  view.historical_begin = view.analysis_begin - spec.historical;

  // Window boundaries as index positions; adjacent windows share them, so
  // the three value spans tile one contiguous range of the series storage.
  const auto [hist_first, analysis_first] =
      series.SliceIndices(view.historical_begin, view.analysis_begin);
  const auto [unused_a, extended_first] =
      series.SliceIndices(view.analysis_begin, view.extended_begin);
  const auto [unused_e, last] = series.SliceIndices(view.extended_begin, as_of);

  const std::span<const double> values = series.value_span();
  view.historical = values.subspan(hist_first, analysis_first - hist_first);
  view.analysis = values.subspan(analysis_first, extended_first - analysis_first);
  view.extended = values.subspan(extended_first, last - extended_first);
  view.analysis_plus_extended = values.subspan(analysis_first, last - analysis_first);
  view.full = values.subspan(hist_first, last - hist_first);
  view.analysis_timestamps = std::span<const TimePoint>(series.timestamps())
                                 .subspan(analysis_first, last - analysis_first);
  return view;
}

}  // namespace fbdetect
