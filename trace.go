package pimtree

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// ParseArrival parses one trace line: `stream,key` or `stream,key,ts`,
// where stream is "R"/"S" (or "0"/"1"), key is an unsigned 32-bit join
// attribute, and ts an optional unsigned 64-bit event timestamp (hasTS
// reports whether one was present). It is the single line grammar behind
// ReadArrivalsCSV and the pimjoin -stdin streaming mode.
func ParseArrival(line string) (a Arrival, hasTS bool, err error) {
	parts := strings.Split(line, ",")
	if len(parts) < 2 || len(parts) > 3 {
		return Arrival{}, false, fmt.Errorf("want `stream,key[,ts]`, got %q", line)
	}
	switch strings.TrimSpace(parts[0]) {
	case "R", "r", "0":
		a.Stream = R
	case "S", "s", "1":
		a.Stream = S
	default:
		return Arrival{}, false, fmt.Errorf("unknown stream %q", parts[0])
	}
	key, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 32)
	if err != nil {
		return Arrival{}, false, fmt.Errorf("bad key: %v", err)
	}
	a.Key = uint32(key)
	if len(parts) == 3 {
		ts, err := strconv.ParseUint(strings.TrimSpace(parts[2]), 10, 64)
		if err != nil {
			return Arrival{}, false, fmt.Errorf("bad timestamp: %v", err)
		}
		a.TS = ts
		hasTS = true
	}
	return a, hasTS, nil
}

// ReadArrivalsCSV parses a tuple trace for replay through the join drivers:
// one arrival per line in the ParseArrival grammar (`stream,key`, with an
// optional event timestamp third field). Blank lines and lines starting
// with '#' are skipped. This is the ingestion path for replaying recorded
// workloads instead of the synthetic generators.
func ReadArrivalsCSV(r io.Reader) ([]Arrival, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var out []Arrival
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		a, _, err := ParseArrival(line)
		if err != nil {
			return nil, fmt.Errorf("pimtree: trace line %d: %v", lineNo, err)
		}
		out = append(out, a)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pimtree: trace read: %v", err)
	}
	return out, nil
}

// WriteArrivalsCSV writes arrivals in the format ReadArrivalsCSV parses, so
// synthetic workloads can be captured and replayed byte-identically. A trace
// in which any arrival has a non-zero TS is written as `stream,key,ts` on
// every line (the form pimjoin's timed -stdin mode requires); any other as
// `stream,key`.
func WriteArrivalsCSV(w io.Writer, arrivals []Arrival) error {
	timed := slices.ContainsFunc(arrivals, func(a Arrival) bool { return a.TS != 0 })
	bw := bufio.NewWriter(w)
	for _, a := range arrivals {
		tag := "R"
		if a.Stream == S {
			tag = "S"
		}
		var err error
		if timed {
			_, err = fmt.Fprintf(bw, "%s,%d,%d\n", tag, a.Key, a.TS)
		} else {
			_, err = fmt.Fprintf(bw, "%s,%d\n", tag, a.Key)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
