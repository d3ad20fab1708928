package tracectx

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// node is the tree form of a Doc used by the renderers.
type node struct {
	SpanDoc
	children []*node
}

// build reconstructs the span tree from the document's flat, path-ordered
// list. Spans whose parent is missing (a truncated doc) attach to the root.
func build(d *Doc) *node {
	byID := make(map[string]*node, len(d.Spans))
	var root *node
	nodes := make([]*node, len(d.Spans))
	for i, s := range d.Spans {
		n := &node{SpanDoc: s}
		nodes[i] = n
		byID[s.ID] = n
		if s.Parent == "" && root == nil {
			root = n
		}
	}
	if root == nil {
		return nil
	}
	for _, n := range nodes {
		if n == root {
			continue
		}
		p := byID[n.Parent]
		if p == nil {
			p = root
		}
		p.children = append(p.children, n)
	}
	// Children arrive path-sorted from the doc; resort by start time (path
	// as tiebreak) so the tree reads chronologically.
	var sortKids func(n *node)
	sortKids = func(n *node) {
		sort.Slice(n.children, func(i, j int) bool {
			a, b := n.children[i], n.children[j]
			if a.StartUS != b.StartUS {
				return a.StartUS < b.StartUS
			}
			return a.Path < b.Path
		})
		for _, c := range n.children {
			sortKids(c)
		}
	}
	sortKids(root)
	return root
}

// WriteTree renders the trace as an indented tree with per-span wall
// durations and attrs, the `powerbench trace show` view.
func WriteTree(w io.Writer, d *Doc) error {
	fmt.Fprintf(w, "trace %s  (%s", d.Trace, fmtUS(d.DurationUS))
	if d.Status != 0 {
		fmt.Fprintf(w, ", status %d", d.Status)
	}
	if d.Reason != "" {
		fmt.Fprintf(w, ", kept: %s", d.Reason)
	}
	fmt.Fprintf(w, ")\n")
	if d.Flight != "" {
		fmt.Fprintf(w, "flight %s\n", d.Flight)
	}
	if d.Origin != "" {
		fmt.Fprintf(w, "origin %s\n", d.Origin)
	}
	root := build(d)
	if root == nil {
		_, err := fmt.Fprintln(w, "(no spans)")
		return err
	}
	var walk func(n *node, depth int) error
	walk = func(n *node, depth int) error {
		line := fmt.Sprintf("%s%s  %s", strings.Repeat("  ", depth), n.Name, fmtUS(n.DurUS))
		if a := fmtAttrs(n.Attrs); a != "" {
			line += "  " + a
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		for _, c := range n.children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, 0)
}

// CriticalPath returns the chain of spans from the root that follows the
// longest-duration child at every level — where the request's wall time
// actually went.
func CriticalPath(d *Doc) []SpanDoc {
	n := build(d)
	if n == nil {
		return nil
	}
	var path []SpanDoc
	for n != nil {
		path = append(path, n.SpanDoc)
		var widest *node
		for _, c := range n.children {
			if widest == nil || c.DurUS > widest.DurUS {
				widest = c
			}
		}
		n = widest
	}
	return path
}

// WriteTop renders the critical-path summary, the `powerbench trace top`
// view: each hop with its duration and share of the root's wall time.
func WriteTop(w io.Writer, d *Doc) error {
	path := CriticalPath(d)
	if len(path) == 0 {
		_, err := fmt.Fprintln(w, "(no spans)")
		return err
	}
	total := path[0].DurUS
	fmt.Fprintf(w, "critical path of trace %s (%s total):\n", d.Trace, fmtUS(total))
	for _, s := range path {
		pct := 100.0
		if total > 0 {
			pct = 100 * float64(s.DurUS) / float64(total)
		}
		if _, err := fmt.Fprintf(w, "  %6.1f%%  %-10s %s\n", pct, fmtUS(s.DurUS), s.Path); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event ("X" complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome exports the trace in Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Lanes (tids) are assigned so that a span
// shares its parent's lane unless its wall interval overlaps an
// already-placed sibling, in which case it opens a new lane — concurrent
// workers therefore spread into parallel tracks.
func WriteChrome(w io.Writer, d *Doc) error {
	root := build(d)
	if root == nil {
		return fmt.Errorf("tracectx: trace %s has no spans", d.Trace)
	}
	var events []chromeEvent
	nextTID := 0
	var place func(n *node, lane int)
	place = func(n *node, lane int) {
		args := make(map[string]any, len(n.Attrs)+1)
		for k, v := range n.Attrs {
			args[k] = v
		}
		args["span"] = n.ID
		events = append(events, chromeEvent{
			Name: n.Name, Cat: n.Cat, Ph: "X",
			TS: n.StartUS, Dur: n.DurUS,
			PID: 1, TID: lane, Args: args,
		})
		// ends[l] is the latest end time placed in lane l among this span's
		// children; a child reuses the parent lane or the first lane it does
		// not overlap, else opens a fresh one.
		ends := map[int]int64{}
		lanes := []int{lane}
		for _, c := range n.children {
			chosen := -1
			for _, l := range lanes {
				if c.StartUS >= ends[l] {
					chosen = l
					break
				}
			}
			if chosen == -1 {
				nextTID++
				chosen = nextTID
				lanes = append(lanes, chosen)
			}
			ends[chosen] = c.StartUS + c.DurUS
			place(c, chosen)
		}
	}
	place(root, 0)
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata"`
	}{events, map[string]any{"trace": d.Trace, "schema": d.Schema, "tree_hash": d.TreeHash}})
}

// WriteChromeFile ends t's root span and writes the trace to path in Chrome
// trace-event JSON: the -trace-out exporter of the command-line binaries.
func WriteChromeFile(path string, t *Trace) error {
	t.Root().End()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := WriteChrome(f, t.Export())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func fmtUS(us int64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.1fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

func fmtAttrs(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, attrs[k])
	}
	return "[" + strings.Join(parts, " ") + "]"
}
