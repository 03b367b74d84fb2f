package metrics

import (
	"strconv"
	"strings"
)

// ParseValue extracts one series' value from a Prometheus text exposition,
// as produced by WritePrometheus. The series name must match exactly,
// including any label set (e.g. `http_requests_total{code="202"}`). It
// returns false when the series is absent. Tests use it to assert on scraped metrics without a Prometheus dependency.
func ParseValue(exposition, series string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 || line[:sp] != series {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}
