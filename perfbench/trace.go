package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// traceDir is where traced runs leave their Chrome trace files, relative
// to the directory the benchmark runs from.
const traceDir = ".bench_build/traces"

// tracing is the instrumentation of a traced phase: one span tracer that
// both the benchmark's own spans and the program's obs spans record into,
// and one metrics registry handed to the program.
type tracing struct {
	tracer *obs.Tracer
	reg    *obs.Registry

	doc   []byte // Chrome trace, rendered once when the phase ends
	spans []span
}

func newTracing() *tracing {
	return &tracing{tracer: obs.NewTracer(), reg: obs.NewRegistry()}
}

// with returns ctx carrying the tracer; a nil tracing leaves ctx alone.
func (t *tracing) with(ctx context.Context) context.Context {
	if t == nil {
		return ctx
	}
	return obs.WithTracer(ctx, t.tracer)
}

// registry returns the registry, or nil when the phase is untraced.
func (t *tracing) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// span is one exported trace span with its self time.
type span struct {
	name     string
	parent   int
	start    float64 // µs
	dur      float64 // µs
	self     float64 // µs not covered by child spans
	children []int
}

type chromeEvent struct {
	Name string            `json:"name"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args"`
}

// finish renders the trace once and rebuilds the span tree from it: the
// exported file is the single source of the per-layer summary.
func (t *tracing) finish() error {
	if t.doc != nil {
		return nil
	}
	var buf bytes.Buffer
	if err := t.tracer.WriteChromeTrace(&buf); err != nil {
		return err
	}
	t.doc = buf.Bytes()
	var evs []chromeEvent
	if err := json.Unmarshal(t.doc, &evs); err != nil {
		return fmt.Errorf("parse trace: %w", err)
	}
	// Spans export in id order; a root without attributes carries no
	// span_id, so the position is the id.
	t.spans = make([]span, len(evs))
	for i, ev := range evs {
		parent := -1
		if p, ok := ev.Args["parent_span"]; ok {
			v, err := strconv.Atoi(p)
			if err != nil {
				return fmt.Errorf("parse trace: span %d parent %q", i, p)
			}
			parent = v
		}
		t.spans[i] = span{name: ev.Name, parent: parent, start: ev.Ts, dur: ev.Dur}
	}
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			t.spans[p].children = append(t.spans[p].children, i)
		}
	}
	for i := range t.spans {
		t.spans[i].self = t.spans[i].dur - t.covered(&t.spans[i])
	}
	return nil
}

// covered is the part of s's interval that the union of its children
// covers; children of one span may run concurrently (sweep points).
func (t *tracing) covered(s *span) float64 {
	if len(s.children) == 0 {
		return 0
	}
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(s.children))
	for _, c := range s.children {
		ch := t.spans[c]
		lo, hi := max(ch.start, s.start), min(ch.start+ch.dur, s.start+s.dur)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerStat sums the spans of one name.
type layerStat struct {
	count     int
	dur, self float64 // seconds
}

// stat sums every span named name; with under non-empty, only spans that
// have an ancestor of that name.
func (t *tracing) stat(name, under string) layerStat {
	var st layerStat
	for i := range t.spans {
		s := &t.spans[i]
		if s.name != name || (under != "" && !t.hasAncestor(s, under)) {
			continue
		}
		st.count++
		st.dur += s.dur / 1e6
		st.self += s.self / 1e6
	}
	return st
}

func (t *tracing) hasAncestor(s *span, name string) bool {
	for p := s.parent; p >= 0; p = t.spans[p].parent {
		if t.spans[p].name == name {
			return true
		}
	}
	return false
}

// writeTrace writes the Chrome trace of the traced phase under traceDir.
func (t *tracing) writeTrace(workload string, seed int64) error {
	if err := t.finish(); err != nil {
		return err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, t.doc, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(t.spans), path)
	return nil
}

// counter reads a counter series of the registry through the registry's
// own accessors; help text does not take part in the lookup.
func (t *tracing) counter(name string, labels []string, values ...string) float64 {
	if len(labels) == 0 {
		return float64(t.reg.Counter(name, "").Value())
	}
	return float64(t.reg.CounterVec(name, "", labels...).With(values...).Value())
}

// histogramSum reads the sum of an unlabeled default-bucket histogram.
func (t *tracing) histogramSum(name string) float64 {
	return t.reg.Histogram(name, "", nil).Sum()
}

// unattributedFrac is the share of worker time no program span covers:
// the self time of sweep points over the time workers spent in points
// plus the time the caller spent in direct layer calls.
func (t *tracing) unattributedFrac(direct ...string) float64 {
	pt := t.stat("point", "")
	work := pt.dur
	for _, name := range direct {
		work += t.stat(name, "").dur
	}
	return ratio(pt.self, work)
}
