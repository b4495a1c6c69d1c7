package main

import (
	"testing"
	"unicode/utf8"
)

func TestClip(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
		n              int
	}{
		{"short ascii", "Chez Martin", "Chez Martin", 34},
		{"exact width", "abcde", "abcde", 5},
		{"long ascii", "abcdef", "abcd…", 5},
		{"multi-byte cut", "Café Crème Brûlée", "Café…", 5},
		{"multi-byte exact width", "Zürich", "Zürich", 6},
		{"cut at a multi-byte rune", "日本語のテキスト", "日本語…", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := clip(tc.in, tc.n)
			if got != tc.want {
				t.Errorf("clip(%q, %d) = %q, want %q", tc.in, tc.n, got, tc.want)
			}
			if !utf8.ValidString(got) {
				t.Errorf("clip(%q, %d) = %q is not valid UTF-8", tc.in, tc.n, got)
			}
			if c := utf8.RuneCountInString(got); c > tc.n {
				t.Errorf("clip(%q, %d) has %d runes", tc.in, tc.n, c)
			}
		})
	}
}
