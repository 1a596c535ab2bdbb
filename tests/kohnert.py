"""Kohnert's rule for key polynomials (Kohnert 1991, in the form Assaf
and Searles use in JCTA 2018), a model of the key basis that shares no
code with the package: the key polynomial of a weak composition a is the
sum of x^(row weights) over the diagrams reached from a's left-justified
diagram by Kohnert moves.  A move takes the rightmost cell of a row down
to the first empty cell below it in its column, jumping over full ones."""


def kohnert_diagrams(a):
    """Every diagram reached from the left-justified diagram of a, row i
    holding a[i - 1] cells: frozensets of (row, column) cells."""
    start = frozenset((i, c) for i, cells in enumerate(a, 1) for c in range(1, cells + 1))
    seen, todo = {start}, [start]
    while todo:
        diagram = todo.pop()
        rightmost = {}
        for i, c in diagram:
            rightmost[i] = max(c, rightmost.get(i, 0))
        for i, c in rightmost.items():
            below = i - 1
            while (below, c) in diagram:
                below -= 1
            if below >= 1:
                moved = diagram - {(i, c)} | {(below, c)}
                if moved not in seen:
                    seen.add(moved)
                    todo.append(moved)
    return seen


def kohnert_polynomial(a):
    """The key polynomial of a as {row weights: coefficient}, each row
    weight vector as long as a."""
    terms = {}
    for diagram in kohnert_diagrams(a):
        weights = [0] * len(a)
        for i, _ in diagram:
            weights[i - 1] += 1
        terms[tuple(weights)] = terms.get(tuple(weights), 0) + 1
    return terms
