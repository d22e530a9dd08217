"""Two identical findings in two functions: one report line each."""


def hot_path(queue, items, base):
    for item in items:
        queue.push((base, base))


def cold_path(queue, items, base):
    for item in items:
        queue.push((base, base))
