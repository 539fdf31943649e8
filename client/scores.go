package client

import (
	"encoding/json"
	"strconv"
)

// Scores maps a metric name to its value: the scores object of a
// /v1/eval reply, keyed bleu, edit_distance, exact_match, kv_exact,
// kv_wildcard and unit_test. It is a plain map[string]float64, and
// assignable to and from one.
type Scores map[string]float64

// metricNames are the six keys of a reply's scores, in the order the
// server writes them. A decoded key equal to one of them is stored as
// that string, so a reply's keys allocate nothing.
var metricNames = [...]string{"bleu", "edit_distance", "exact_match", "kv_exact", "kv_wildcard", "unit_test"}

// maxFastMembers bounds the members the fast path collects before it
// stores any; an object with more goes to encoding/json.
const maxFastMembers = 2 * len(metricNames)

// UnmarshalJSON decodes a flat object of plain-ASCII keys and JSON
// numbers, the shape of every reply's scores, without reflection: keys
// are matched against metricNames and values parsed with
// strconv.ParseFloat. Anything else — escaped or non-ASCII keys, null,
// values that are not numbers, numbers out of float64's range, more
// than maxFastMembers members — is decoded by json.Unmarshal into the
// map, which is the behaviour the fast path reproduces: members merge
// into a non-nil map, keys it does not know are kept, and a later
// duplicate wins (FuzzScoresDecode holds the two to each other).
func (s *Scores) UnmarshalJSON(data []byte) error {
	var members [maxFastMembers]member
	n, ok := scanFlatObject(data, members[:])
	if !ok {
		return json.Unmarshal(data, (*map[string]float64)(s))
	}
	if *s == nil {
		*s = make(Scores, len(metricNames))
	}
	for _, m := range members[:n] {
		(*s)[metricName(m.key)] = m.val
	}
	return nil
}

// metricName returns key as a string: the metricNames entry it equals,
// or a copy.
func metricName(key []byte) string {
	for _, name := range metricNames {
		if string(key) == name {
			return name
		}
	}
	return string(key)
}

// member is one key and value of a flat object; key points into the
// decoded bytes.
type member struct {
	key []byte
	val float64
}

// scanFlatObject reads data as one JSON object whose keys are printable
// ASCII without escapes and whose values are numbers, with nothing but
// white space around it. It stores the members into members, in order,
// and returns how many there were. It returns false when data is
// anything else, a number does not fit a float64, or there are more
// members than len(members).
func scanFlatObject(data []byte, members []member) (int, bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return 0, skipSpace(data, i+1) == len(data)
	}
	for n := 0; ; n++ {
		if i == len(data) || data[i] != '"' {
			return n, false
		}
		start := i + 1
		for i = start; i < len(data) && data[i] != '"'; i++ {
			if c := data[i]; c < ' ' || c > '~' || c == '\\' {
				return n, false
			}
		}
		if i == len(data) {
			return n, false
		}
		key := data[start:i]
		i = skipSpace(data, i+1)
		if i == len(data) || data[i] != ':' {
			return n, false
		}
		i = skipSpace(data, i+1)
		end := numberEnd(data, i)
		if end == i {
			return n, false
		}
		val, err := strconv.ParseFloat(string(data[i:end]), 64)
		if err != nil || n == len(members) {
			return n, false
		}
		members[n] = member{key, val}
		i = skipSpace(data, end)
		if i == len(data) {
			return n, false
		}
		switch data[i] {
		case '}':
			return n + 1, skipSpace(data, i+1) == len(data)
		case ',':
			i = skipSpace(data, i+1)
		default:
			return n, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON white space.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// numberEnd returns the end of the JSON number that starts at data[i],
// or i when none does: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func numberEnd(data []byte, i int) int {
	j := i
	if j < len(data) && data[j] == '-' {
		j++
	}
	switch {
	case j < len(data) && data[j] == '0':
		j++
	case j < len(data) && '1' <= data[j] && data[j] <= '9':
		j = digitsEnd(data, j)
	default:
		return i
	}
	if j < len(data) && data[j] == '.' {
		if k := digitsEnd(data, j+1); k > j+1 {
			j = k
		} else {
			return i
		}
	}
	if j < len(data) && (data[j] == 'e' || data[j] == 'E') {
		j++
		if j < len(data) && (data[j] == '+' || data[j] == '-') {
			j++
		}
		if k := digitsEnd(data, j); k > j {
			j = k
		} else {
			return i
		}
	}
	return j
}

// digitsEnd returns the index of the first byte at or after i that is
// not an ASCII digit.
func digitsEnd(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}
