#include "spans.hh"

namespace perfbench {

int
SpanLog::begin(const char *name, uint64_t id)
{
    Span span;
    span.name = name;
    span.id = id;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = Clock::now();
    spans_.push_back(std::move(span));
    int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    events_.push_back({true, index});
    return index;
}

void
SpanLog::end(int index)
{
    Span &span = spans_[index];
    span.end = Clock::now();
    open_.pop_back();
    if (span.parent >= 0)
        spans_[span.parent].children += span.end - span.start;
    events_.push_back({false, index});
}

std::map<std::string, double>
SpanLog::selfMs() const
{
    std::map<std::string, double> self;
    for (const Span &span : spans_)
        self[span.name] += std::chrono::duration<double, std::milli>(
            span.end - span.start - span.children).count();
    return self;
}

hilp::Json
SpanLog::chromeTrace() const
{
    hilp::Json events = hilp::Json::array();
    for (const Event &event : events_) {
        const Span &span = spans_[event.span];
        hilp::Json out = hilp::Json::object();
        out.set("name", hilp::Json::string(span.name));
        out.set("cat", hilp::Json::string("perfbench"));
        out.set("ph", hilp::Json::string(event.begin ? "B" : "E"));
        out.set("pid", hilp::Json::number(int64_t{1}));
        out.set("tid", hilp::Json::number(int64_t{1}));
        Clock::time_point at = event.begin ? span.start : span.end;
        out.set("ts", hilp::Json::number(static_cast<int64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                at - origin_).count())));
        if (event.begin) {
            hilp::Json args = hilp::Json::object();
            args.set("id", hilp::Json::number(
                static_cast<int64_t>(span.id)));
            out.set("args", std::move(args));
        }
        events.append(std::move(out));
    }
    hilp::Json trace = hilp::Json::object();
    trace.set("traceEvents", std::move(events));
    return trace;
}

} // namespace perfbench
