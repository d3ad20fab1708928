package main

import (
	"bufio"
	"strconv"
	"strings"
)

// scrape is one parsed /metrics exposition: every sample keyed by its full
// series name, labels included ("cluster_peer_hits_total{peer=\"s1\"}").
type scrape map[string]float64

// parseProm parses the Prometheus text format the daemon writes. Comment
// lines are skipped, and an OpenMetrics exemplar suffix (" # {...} v") on
// a sample line is dropped with the rest of the comment.
func parseProm(text string) scrape {
	out := scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		// The value is the last field; label values may hold spaces, so
		// split at the last space rather than the first.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:sp])] = v
	}
	return out
}

// family sums every series of one metric name, labeled or not. A series
// belongs to the family only when its name matches exactly, so a
// histogram's _sum/_count/_bucket series and longer names sharing the
// prefix are never counted in.
func (s scrape) family(name string) float64 {
	var total float64
	for series, v := range s {
		n := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			n = series[:i]
		}
		if n == name {
			total += v
		}
	}
	return total
}

// delta returns the growth of a metric family from before to after.
func delta(before, after scrape, name string) float64 {
	return after.family(name) - before.family(name)
}

// sumScrapes adds several daemons' scrapes series by series, so a
// cluster's counters read as one.
func sumScrapes(ss ...scrape) scrape {
	out := scrape{}
	for _, s := range ss {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}
