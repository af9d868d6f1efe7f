package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"sprofile"
)

// metricDelta maps a series name (labels kept) to a value or to the change
// of a value across an interval.
type metricDelta map[string]float64

// scrape reads the process's metric registry: the same exposition the
// server's GET /metrics serves, read in-process so the scrape adds no
// connection to the load.
func scrape() (metricDelta, error) {
	var buf bytes.Buffer
	if err := sprofile.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	out := metricDelta{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func (m metricDelta) minus(before metricDelta) metricDelta {
	out := metricDelta{}
	for k, v := range m {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of family whose labels contain all of the given
// label pairs (written as `name="value"`).
func (m metricDelta) sum(family string, labels ...string) float64 {
	total := 0.0
	for k, v := range m {
		name, lbl, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}
