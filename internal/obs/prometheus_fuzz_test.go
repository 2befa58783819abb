package obs

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

var (
	promMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseSeriesLine parses one 0.0.4 series line `name{k="v",...} value` and
// returns the metric name, label names, and the *unescaped* label values.
// It fails the test on any structural violation: bad charset in names,
// unbalanced quotes, or an escape sequence the format does not define.
func parseSeriesLine(t *testing.T, line string) (string, []string, []string) {
	t.Helper()
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		t.Fatalf("series line has no label block or value: %q", line)
	}
	name := line[:i]
	if !promMetricName.MatchString(name) {
		t.Fatalf("metric name %q violates the 0.0.4 charset in %q", name, line)
	}
	var names, values []string
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				t.Fatalf("label block missing '=' in %q", line)
			}
			ln := rest[:eq]
			if !promLabelName.MatchString(ln) {
				t.Fatalf("label name %q violates the 0.0.4 charset in %q", ln, line)
			}
			names = append(names, ln)
			rest = rest[eq+1:]
			if len(rest) == 0 || rest[0] != '"' {
				t.Fatalf("label value not quoted in %q", line)
			}
			rest = rest[1:]
			var val strings.Builder
		scan:
			for {
				if len(rest) == 0 {
					t.Fatalf("unterminated label value in %q", line)
				}
				switch rest[0] {
				case '\\':
					if len(rest) < 2 {
						t.Fatalf("dangling backslash in %q", line)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("undefined escape \\%c in %q", rest[1], line)
					}
					rest = rest[2:]
				case '"':
					rest = rest[1:]
					break scan
				case '\n':
					t.Fatalf("raw newline inside label value in %q", line)
				default:
					val.WriteByte(rest[0])
					rest = rest[1:]
				}
			}
			values = append(values, val.String())
			if len(rest) == 0 {
				t.Fatalf("label block unterminated in %q", line)
			}
			if rest[0] == ',' {
				rest = rest[1:]
				continue
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			t.Fatalf("unexpected byte %q after label value in %q", rest[0], line)
		}
	}
	if len(rest) == 0 || rest[0] != ' ' {
		t.Fatalf("series line missing value separator: %q", line)
	}
	if strings.TrimSpace(rest[1:]) == "" {
		t.Fatalf("series line missing value: %q", line)
	}
	return name, names, values
}

// FuzzPrometheusWrite feeds hostile metric names, label names, and label
// values (malformed UTF-8, quotes, newlines, backslashes) through the
// registry's text writer and requires the output to still be structurally
// valid 0.0.4 exposition text — and the label value to survive the
// escape/unescape round trip byte-for-byte.
func FuzzPrometheusWrite(f *testing.F) {
	f.Add("dgmc_ok_total", "reason", "plain")
	f.Add("", "", "")
	f.Add("9starts_with_digit", "9label", "value")
	f.Add("sp ace", "la bel", `quote " inside`)
	f.Add("new\nline", "key\n", "multi\nline\nvalue")
	f.Add(`back\slash`, `k\`, `trailing backslash \`)
	f.Add("\xff\xfe", "\x80", "\xc3\x28 invalid utf8")
	f.Add("mixed:colons_ok", "_", `\n literal then real
newline`)
	f.Add("héllo", "läbel", "värld")

	f.Fuzz(func(t *testing.T, name, labelKey, labelValue string) {
		reg := NewRegistry()
		reg.CounterFunc(name, func() float64 { return 3 }, Label{Key: labelKey, Value: labelValue})

		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		out := buf.String()
		if !strings.HasSuffix(out, "\n") {
			t.Fatalf("output does not end in newline: %q", out)
		}
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")

		var series []string
		for _, line := range lines {
			if strings.HasPrefix(line, "# TYPE ") {
				fields := strings.Fields(line)
				if len(fields) != 4 {
					t.Fatalf("malformed TYPE line: %q", line)
				}
				if !promMetricName.MatchString(fields[2]) {
					t.Fatalf("TYPE line name %q invalid: %q", fields[2], line)
				}
				continue
			}
			series = append(series, line)
		}
		if len(series) != 1 {
			t.Fatalf("want exactly 1 series line, got %d:\n%s", len(series), out)
		}
		_, _, values := parseSeriesLine(t, series[0])
		if len(values) != 1 {
			t.Fatalf("want 1 label value, got %d in %q", len(values), series[0])
		}
		if values[0] != labelValue {
			t.Fatalf("label value did not round-trip:\n in: %q\nout: %q", labelValue, values[0])
		}
	})
}
