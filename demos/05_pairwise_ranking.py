"""Fit strength scores from pairwise human preferences.

Run from the repository root:  python demos/05_pairwise_ranking.py
"""

import io

from harmlab import bt_fit, read_pairs_csv, scores_csv

# Counts of "row preferred over column" judgments across four methods. The
# CSV form matches the bt-rank subcommand's input.
csv_text = """winner,loser,count
ours,method_a,1450
method_a,ours,550
ours,method_b,1630
method_b,ours,370
ours,method_c,1820
method_c,ours,180
method_a,method_b,1210
method_b,method_a,790
method_a,method_c,1540
method_c,method_a,460
method_b,method_c,1380
method_c,method_b,620
"""

data = read_pairs_csv(io.StringIO(csv_text))
result = bt_fit(data)

print("Newton iterations:", result.iterations)
print(scores_csv(result))

# The two-player case has a closed form: score ratio equals the win ratio.
two = read_pairs_csv(io.StringIO("a,b,3\nb,a,1\n"))
print("closed form [0.75 0.25]:", bt_fit(two).scores)

# A 121-method chain, each method beating its successor twice and losing to it
# once: Newton's method fits it in a few iterations.
rows = "".join(f"m{i:03d},m{i + 1:03d},2\nm{i + 1:03d},m{i:03d},1\n" for i in range(120))
long_chain = bt_fit(read_pairs_csv(io.StringIO(rows)))
print("121-method chain, Newton iterations:", long_chain.iterations)
print("first and last:", long_chain.ranking()[0], long_chain.ranking()[-1])
