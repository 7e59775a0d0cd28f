"""Reference tokenizer for formula text: one character at a time.

This is the character loop the parser used before its tokenizer became one
compiled pattern. It is kept here unchanged, the way `bruteforce.py` keeps a
reference checker, so that `atlh.formula._tokenize` can be compared with it
on many texts (`tests/test_formula.py`).
"""

from collections import namedtuple

from atlh.formula import FormulaError

# a token as this loop gives it: kind ('ident', 'number', 'punct', 'eof'),
# text and position
_Token = namedtuple("_Token", "kind text line col")

_PUNCT = ("<=", ">=", "!", "&", "|", "(", ")", "[", "]", "{", "}", "<", ">", "=", ",", "/")


def reference_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdecimal():
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token("punct", p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise FormulaError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens
