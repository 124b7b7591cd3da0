package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// defaultTrack is the display name for spans started with an empty track.
const defaultTrack = "sort"

func trackName(track string) string {
	if track == "" {
		return defaultTrack
	}
	return track
}

// attrsJSON renders attrs as a JSON object with keys in attribute order,
// so exported traces are deterministic (map-based marshalling is not).
func attrsJSON(attrs []Attr) json.RawMessage {
	if len(attrs) == 0 {
		return nil
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(a.Key)
		b.Write(k)
		b.WriteByte(':')
		switch a.kind {
		case attrInt, attrBool:
			b.WriteString(a.String())
		default:
			v, _ := json.Marshal(a.str)
			b.Write(v)
		}
	}
	b.WriteByte('}')
	return json.RawMessage(b.String())
}

// chromeEvent is one entry of a Chrome trace_event "traceEvents" array.
type chromeEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Ts   int64           `json:"ts"`
	Dur  int64           `json:"dur,omitempty"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Args json.RawMessage `json:"args,omitempty"`
}

// assignLanes packs possibly-overlapping spans of one track into the
// fewest display lanes: spans sorted by start time greedily take the
// first lane that is free at their start.
func assignLanes(spans []SpanData) map[int64]int {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := spans[idx[a]], spans[idx[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.ID < sb.ID
	})
	lanes := make(map[int64]int, len(spans))
	var laneEnd []time.Duration
	for _, i := range idx {
		sp := spans[i]
		lane := -1
		for l, end := range laneEnd {
			if end <= sp.Start {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = sp.Start + sp.Duration
		lanes[sp.ID] = lane
	}
	return lanes
}

// WriteChromeTrace exports all completed spans as a Chrome trace_event
// JSON document (the format read by chrome://tracing and Perfetto). Each
// track becomes a group of threads; overlapping spans in a track are
// spread across lanes.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	byTrack := make(map[string][]SpanData)
	var tracks []string
	for _, sp := range t.Spans() {
		name := trackName(sp.Track)
		if byTrack[name] == nil {
			tracks = append(tracks, name)
		}
		byTrack[name] = append(byTrack[name], sp)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if (tracks[i] == defaultTrack) != (tracks[j] == defaultTrack) {
			return tracks[i] == defaultTrack
		}
		return tracks[i] < tracks[j]
	})

	var out []chromeEvent
	for ti, name := range tracks {
		base := ti * 100
		lanes := assignLanes(byTrack[name])
		maxLane := 0
		for _, l := range lanes {
			if l > maxLane {
				maxLane = l
			}
		}
		for lane := 0; lane <= maxLane; lane++ {
			label := name
			if lane > 0 {
				label = fmt.Sprintf("%s/%d", name, lane)
			}
			lbl, _ := json.Marshal(label)
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: base + lane,
				Args: json.RawMessage(`{"name":` + string(lbl) + `}`),
			})
		}
		for _, sp := range byTrack[name] {
			out = append(out, chromeEvent{
				Name: sp.Name,
				Ph:   "X",
				Ts:   sp.Start.Microseconds(),
				Dur:  sp.Duration.Microseconds(),
				Pid:  1,
				Tid:  base + lanes[sp.ID],
				Args: attrsJSON(sp.Attrs),
			})
		}
	}

	enc, err := json.MarshalIndent(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: out}, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(enc, '\n'))
	return err
}

// jsonlSpan is the per-line schema of WriteSpansJSONL.
type jsonlSpan struct {
	Type    string          `json:"type"`
	ID      int64           `json:"id,omitempty"`
	Parent  int64           `json:"parent,omitempty"`
	Name    string          `json:"name"`
	Track   string          `json:"track"`
	StartUs int64           `json:"start_us"`
	DurUs   int64           `json:"dur_us,omitempty"`
	Attrs   json.RawMessage `json:"attrs,omitempty"`
}

// WriteSpansJSONL exports completed spans as one JSON object per line,
// for grep/jq-style inspection.
func (t *Tracer) WriteSpansJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range t.Spans() {
		line := jsonlSpan{
			Type: "span", ID: sp.ID, Parent: sp.Parent,
			Name: sp.Name, Track: trackName(sp.Track),
			StartUs: sp.Start.Microseconds(), DurUs: sp.Duration.Microseconds(),
			Attrs: attrsJSON(sp.Attrs),
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}
