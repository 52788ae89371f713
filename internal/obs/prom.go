package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): families in registration order, each
// with one # HELP and # TYPE line, series sorted by label set, histograms
// expanded into cumulative _bucket{le=...} lines plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names, fams := r.snapshotLocked()
	help := make(map[string]string, len(names))
	kinds := make(map[string]string, len(names))
	for _, n := range names {
		help[n] = r.help[n]
		kinds[n] = r.seenKinds[n]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, name := range names {
		if h := help[name]; h != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, h)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, kinds[name])
		for _, s := range fams[name] {
			if s.hist != nil {
				writeHistSeries(bw, name, s.labels, s.hist)
				continue
			}
			if s.isCount {
				fmt.Fprintf(bw, "%s %s\n", seriesName(name, s.labels), strconv.FormatUint(uint64(s.value), 10))
			} else {
				fmt.Fprintf(bw, "%s %s\n", seriesName(name, s.labels), formatValue(s.value))
			}
		}
	}
	return bw.Flush()
}

// seriesName renders name{labels} (or bare name for an empty label body).
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// withLE appends the le label to an existing label body.
func withLE(labels, le string) string {
	if labels == "" {
		return `le="` + le + `"`
	}
	return labels + `,le="` + le + `"`
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeHistSeries expands one histogram into the cumulative bucket lines.
func writeHistSeries(w io.Writer, name, labels string, s *HistSnapshot) {
	var cum uint64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", withLE(labels, formatValue(bound))), cum)
	}
	cum += s.Counts[len(s.Bounds)]
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", withLE(labels, "+Inf")), cum)
	fmt.Fprintf(w, "%s %s\n", seriesName(name+"_sum", labels), formatValue(s.Sum))
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", labels), s.Count)
}

// Sample is one parsed exposition line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsePrometheus reads text exposition format back into samples — the
// round-trip check for WritePrometheus and the assertion helper the serving
// tests scrape /metrics with. It accepts the subset this package emits
// (label values without escaped quotes) and rejects malformed lines.
func ParsePrometheus(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		body := rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
		for _, pair := range strings.Split(body, ",") {
			if pair == "" {
				continue
			}
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return s, fmt.Errorf("bad label pair %q", pair)
			}
			k := strings.TrimSpace(pair[:eq])
			v := strings.TrimSpace(pair[eq+1:])
			v, ok := strings.CutPrefix(v, `"`)
			if !ok {
				return s, fmt.Errorf("unquoted label value in %q", pair)
			}
			v, ok = strings.CutSuffix(v, `"`)
			if !ok {
				return s, fmt.Errorf("unterminated label value in %q", pair)
			}
			s.Labels[k] = v
		}
	} else {
		i := strings.IndexByte(rest, ' ')
		if i < 0 {
			return s, fmt.Errorf("no value in %q", line)
		}
		s.Name = rest[:i]
		rest = strings.TrimSpace(rest[i:])
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

// FindSample returns the first sample matching name and the given label
// subset (nil matches any labels), or nil.
func FindSample(samples []Sample, name string, labels map[string]string) *Sample {
	for i := range samples {
		s := &samples[i]
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
	return nil
}
