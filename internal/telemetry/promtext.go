package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label set and
// its value. Histogram series appear as their constituent _bucket /
// _sum / _count samples, exactly as exposed.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseProm parses Prometheus text exposition format (version 0.0.4),
// returning every sample and an error on the first line that does not
// match the grammar. It is strict enough to serve as the repo's
// promtool-free grammar check: metric names and label names must match
// the identifier charsets, label values must be well-quoted with valid
// escapes, values must parse as Go floats (incl. +Inf/-Inf/NaN), and
// # TYPE lines must name a known type.
func ParseProm(r io.Reader) ([]Sample, error) {
	var samples []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := checkCommentLine(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

func checkCommentLine(line string) error {
	rest := strings.TrimPrefix(line, "#")
	rest = strings.TrimLeft(rest, " ")
	switch {
	case strings.HasPrefix(rest, "HELP "):
		fields := strings.SplitN(rest[len("HELP "):], " ", 2)
		if len(fields) == 0 || !validMetricName(fields[0]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	case strings.HasPrefix(rest, "TYPE "):
		fields := strings.Fields(rest[len("TYPE "):])
		if len(fields) != 2 || !validMetricName(fields[0]) {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		switch fields[1] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[1])
		}
	}
	// Other comments are free-form per the format.
	return nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := 0
	// Metric name.
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("no metric name in %q", line)
	}
	s.Name = line[:i]
	// Optional label block.
	if i < len(line) && line[i] == '{' {
		var err error
		i, err = parseLabels(line, i+1, s.Labels)
		if err != nil {
			return s, err
		}
	}
	// Value (whitespace-separated; optional timestamp after).
	fields := strings.Fields(line[i:])
	if len(fields) == 0 {
		return s, fmt.Errorf("missing value in %q", line)
	}
	if len(fields) > 2 {
		return s, fmt.Errorf("trailing garbage in %q", line)
	}
	v, err := parseFloat(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", fields[0], line)
	}
	s.Value = v
	if len(fields) == 2 { // optional timestamp, integer milliseconds
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q in %q", fields[1], line)
		}
	}
	return s, nil
}

func parseLabels(line string, i int, out map[string]string) (int, error) {
	for {
		// Allow `{}` and trailing comma before `}`.
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i < len(line) && line[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(line) && isLabelChar(line[i], i == start) {
			i++
		}
		if i == start {
			return i, fmt.Errorf("bad label name at col %d in %q", i, line)
		}
		name := line[start:i]
		if i >= len(line) || line[i] != '=' {
			return i, fmt.Errorf("expected '=' after label %q in %q", name, line)
		}
		i++
		if i >= len(line) || line[i] != '"' {
			return i, fmt.Errorf("expected quoted value for label %q in %q", name, line)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(line) {
				return i, fmt.Errorf("unterminated label value for %q in %q", name, line)
			}
			c := line[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				i++
				if i >= len(line) {
					return i, fmt.Errorf("dangling escape in %q", line)
				}
				switch line[i] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return i, fmt.Errorf("invalid escape \\%c in %q", line[i], line)
				}
				i++
				continue
			}
			b.WriteByte(c)
			i++
		}
		out[name] = b.String()
		if i < len(line) && line[i] == ',' {
			i++
			continue
		}
		if i < len(line) && line[i] == '}' {
			return i + 1, nil
		}
		return i, fmt.Errorf("expected ',' or '}' at col %d in %q", i, line)
	}
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func isLabelChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}
